package sweep

import (
	"testing"

	"spcoh/internal/runcfg"
)

// TestSweepAddressesFrozen pins the key and content address of one cell of
// each identity shape, plus one whole-matrix digest. Stored artifacts live
// under Job.Digest and sweep IDs are Matrix.Digest, so any change to these
// strings orphans previously-recorded sweeps.
func TestSweepAddressesFrozen(t *testing.T) {
	rc := runcfg.RunConfig{Threads: 16, Scale: 0.25, Seed: 42}
	epoch := rc
	epoch.MetricsEpoch = 1000
	cells := []struct {
		name        string
		job         Job
		key, digest string
	}{
		{"dir", Job{Bench: "ocean", Kind: "dir", RunConfig: rc},
			"ocean/dir/t16/x0.25/s42",
			"ab73a491b6ef1a4ed9ca329a5771959f23e2694a37c21c64d6f78228fff93edd"},
		{"sp", Job{Bench: "ocean", Kind: "sp", RunConfig: rc},
			"ocean/sp/t16/x0.25/s42",
			"7f128fcfa234cf0489aa21b990e30e347eae17dff9275d95b406e1ff4658a455"},
		{"bcast", Job{Bench: "streamcluster", Kind: "bcast", RunConfig: rc},
			"streamcluster/bcast/t16/x0.25/s42",
			"3a65f04bef85fe586c8ad934c4e164a0eaeae7531dcc9e2f35ae3c17d8a34d0e"},
		{"metrics", Job{Bench: "ocean", Kind: "sp", RunConfig: epoch},
			"ocean/sp/t16/x0.25/s42/m1000",
			"3f3498a52299caf37cd6a2aefe959807ab6ab0ed72adf3b2d9c52a7899237687"},
		{"spec", Job{Bench: "ring", Kind: "sp", RunConfig: rc,
			SpecDigest: "aabbccddeeff00112233", SpecPath: "specs/ring.json"},
			"ring/sp/t16/x0.25/s42/gaabbccddeeff",
			"408860a7cec106869a6306b1185ccf5a389fe73fc18286fd2d5e7e941cb6983d"},
	}
	for _, c := range cells {
		if got := c.job.Key(); got != c.key {
			t.Errorf("%s: Key() = %q, want %q", c.name, got, c.key)
		}
		if got := c.job.Digest(); got != c.digest {
			t.Errorf("%s: Digest() = %q, want %q", c.name, got, c.digest)
		}
	}

	m := Matrix{
		Benches:      []string{"ocean", "fluidanimate"},
		Specs:        []SpecRef{{Name: "fuzz-7", Path: "a.json", Digest: "0123456789abcdef"}},
		Kinds:        []string{"dir", "sp", "bcast"},
		Seeds:        []int64{1, 2},
		Scales:       []float64{0.25, 0.5},
		Threads:      16,
		MetricsEpoch: 500,
	}
	if got, want := m.Digest(), "f45b42bcf83c1bdd29f754d8ad5a2941a6df7e0e1135a2e58f00c917686eaaec"; got != want {
		t.Errorf("Matrix.Digest() = %q, want %q", got, want)
	}
}
