package sweep

import (
	"strings"
	"testing"

	"spcoh/internal/event"
	"spcoh/internal/runcfg"
	"spcoh/internal/sim"
)

// fakeResult builds a deterministic synthetic result from a job spec.
func fakeResult(j Job) *sim.Result {
	r := &sim.Result{Benchmark: j.Bench, Predictor: j.Kind}
	r.Cycles = event.Time(1000 + 13*int64(len(j.Bench)) + 7*j.Seed)
	r.Nodes.Misses = uint64(100 + len(j.Kind))
	r.Nodes.Communicating = 40
	r.Nodes.NonCommunicating = r.Nodes.Misses - 40
	r.Net.Bytes = uint64(4096 * (j.Seed + 1))
	return r
}

func testMatrix() Matrix {
	return Matrix{
		Benches: []string{"beta", "alpha", "gamma"},
		Kinds:   []string{"sp", "dir"},
		Seeds:   []int64{42, 7},
		Scales:  []float64{0.25},
		Threads: 16,
	}
}

func TestMatrixJobsSortedAndComplete(t *testing.T) {
	jobs := testMatrix().Jobs()
	if len(jobs) != 12 {
		t.Fatalf("jobs = %d, want 12", len(jobs))
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i-1].Key() >= jobs[i].Key() {
			t.Fatalf("jobs not strictly sorted: %q >= %q", jobs[i-1].Key(), jobs[i].Key())
		}
	}
	// Duplicate dimension values collapse.
	m := testMatrix()
	m.Seeds = []int64{42, 42}
	if got := len(m.Jobs()); got != 6 {
		t.Fatalf("duplicate seeds not collapsed: %d jobs, want 6", got)
	}
}

func TestMatrixDigestInvariantToSpelling(t *testing.T) {
	a := testMatrix()
	b := testMatrix()
	b.Benches = []string{"gamma", "beta", "alpha"} // same cells, different order
	if a.Digest() != b.Digest() {
		t.Fatal("matrix digest must depend on the cell set, not dimension order")
	}
	b.Seeds = []int64{42}
	if a.Digest() == b.Digest() {
		t.Fatal("different cell sets must have different digests")
	}
}

func TestJobDigestSensitivity(t *testing.T) {
	rc := func(threads int, scale float64, seed int64) runcfg.RunConfig {
		return runcfg.RunConfig{Threads: threads, Scale: scale, Seed: seed}
	}
	j := Job{Bench: "ocean", Kind: "sp", RunConfig: rc(16, 0.25, 42)}
	base := j.Digest()
	for name, mut := range map[string]Job{
		"bench":   {Bench: "fmm", Kind: "sp", RunConfig: rc(16, 0.25, 42)},
		"kind":    {Bench: "ocean", Kind: "dir", RunConfig: rc(16, 0.25, 42)},
		"threads": {Bench: "ocean", Kind: "sp", RunConfig: rc(8, 0.25, 42)},
		"scale":   {Bench: "ocean", Kind: "sp", RunConfig: rc(16, 0.5, 42)},
		"seed":    {Bench: "ocean", Kind: "sp", RunConfig: rc(16, 0.25, 43)},
	} {
		if mut.Digest() == base {
			t.Errorf("changing %s did not change the digest", name)
		}
	}
}

// TestMatrixValidate: the shared matrix check refuses every matrix no
// worker could run, thread counts no machine is sized for included, and
// accepts a runnable one.
func TestMatrixValidate(t *testing.T) {
	base := Matrix{Benches: []string{"x264"}, Kinds: []string{"dir", "oracle"},
		Seeds: []int64{42}, Scales: []float64{0.25}, Threads: 64}
	if err := base.Validate(); err != nil {
		t.Fatalf("runnable matrix rejected: %v", err)
	}
	cases := []struct {
		name, want string
		mut        func(m *Matrix)
	}{
		{"unsupported threads", "unsupported node count 17", func(m *Matrix) { m.Threads = 17 }},
		{"zero threads", "unsupported node count 0", func(m *Matrix) { m.Threads = 0 }},
		{"unknown kind", "have: dir,bcast", func(m *Matrix) { m.Kinds = []string{"none"} }},
		{"unknown bench", "nosuch", func(m *Matrix) { m.Benches = []string{"nosuch"} }},
		{"bad scale", "scale 0", func(m *Matrix) { m.Scales = []float64{0} }},
		{"no kinds", "no kinds", func(m *Matrix) { m.Kinds = nil }},
		{"no seeds", "no seeds", func(m *Matrix) { m.Seeds = nil }},
		{"no scales", "no scales", func(m *Matrix) { m.Scales = nil }},
		{"empty", "no benchmarks", func(m *Matrix) { m.Benches = nil }},
	}
	for _, c := range cases {
		m := base
		c.mut(&m)
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one containing %q", c.name, err, c.want)
		}
	}
}
