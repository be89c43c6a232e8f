package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"spcoh/internal/runcfg"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := Job{Bench: "ocean", Kind: "sp", RunConfig: runcfg.RunConfig{Threads: 16, Scale: 0.25, Seed: 42}}
	if _, ok := store.Lookup(j); ok {
		t.Fatal("empty store reported a hit")
	}
	want := fakeResult(j)
	if err := store.Put(j, want); err != nil {
		t.Fatal(err)
	}
	got, ok := store.Lookup(j)
	if !ok {
		t.Fatal("Put then Lookup missed")
	}
	if got.Cycles != want.Cycles || got.Nodes.Misses != want.Nodes.Misses || got.Net.Bytes != want.Net.Bytes {
		t.Fatalf("round-trip mangled result: got %+v want %+v", got, want)
	}
	// A different job spec must not alias onto the stored artifact.
	other := j
	other.Seed = 43
	if _, ok := store.Lookup(other); ok {
		t.Fatal("lookup with different seed hit the wrong artifact")
	}
}

func TestStorePersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testMatrix()
	if err := store.SetMatrix(m); err != nil {
		t.Fatal(err)
	}
	j := m.Jobs()[0]
	if err := store.Put(j, fakeResult(j)); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reopened.HasManifestFile() {
		t.Fatal("manifest not persisted")
	}
	got, ok, err := reopened.Matrix()
	if err != nil || !ok || got.Digest() != m.Digest() {
		t.Fatalf("matrix not recovered: ok=%v err=%v digest=%s want %s", ok, err, got.Digest(), m.Digest())
	}
	if _, ok := reopened.Lookup(j); !ok {
		t.Fatal("completed job lost across reopen")
	}
	if keys := reopened.Completed(); len(keys) != 1 || keys[0] != j.Key() {
		t.Fatalf("Completed() = %v, want [%s]", keys, j.Key())
	}
}

func TestStoreCorruptionIsAMiss(t *testing.T) {
	j := Job{Bench: "ocean", Kind: "sp", RunConfig: runcfg.RunConfig{Threads: 16, Scale: 0.25, Seed: 42}}
	cases := map[string]func(t *testing.T, dir string){
		"truncated": func(t *testing.T, dir string) {
			path := filepath.Join(dir, j.Digest()+".json")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"bitflip": func(t *testing.T, dir string) {
			path := filepath.Join(dir, j.Digest()+".json")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0xff
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"deleted": func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, j.Digest()+".json")); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Put(j, fakeResult(j)); err != nil {
				t.Fatal(err)
			}
			corrupt(t, dir)
			reopened, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := reopened.Lookup(j); ok {
				t.Fatal("corrupted artifact reported as a hit")
			}
			// A miss leaves the cell pending, so the next run recomputes
			// it; checkpointing that result restores the hit.
			if err := reopened.Put(j, fakeResult(j)); err != nil {
				t.Fatal(err)
			}
			if _, ok := reopened.Lookup(j); !ok {
				t.Fatal("recomputed artifact not re-checkpointed")
			}
		})
	}
}

func TestStoreForeignManifestDiscarded(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"version": 99, "jobs": {"x": {}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Completed(); len(got) != 0 {
		t.Fatalf("foreign-version manifest not discarded: %v", got)
	}
}

func TestStoreConcurrentPut(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := testMatrix().Jobs()
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j Job) {
			defer wg.Done()
			errs[i] = store.Put(j, fakeResult(j))
		}(i, j)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Put %s: %v", jobs[i].Key(), err)
		}
	}
	if got := len(store.Completed()); got != len(jobs) {
		t.Fatalf("completed = %d, want %d", got, len(jobs))
	}
	for _, j := range jobs {
		if _, ok := store.Lookup(j); !ok {
			t.Fatalf("job %s missing after concurrent Put", j.Key())
		}
	}
}

// staleFastManifest is a manifest written by a version that still had the
// fast simulation mode: its matrix carries "mode":"fast" and is recorded
// under the digest that version computed for it. Its "sweeps" key is the
// registry of the since-deleted sweep server, which Open ignores.
const (
	staleFastDigest   = "2bcdc7afb60731a6b8c090fe8266e2defb09512867f75483f1aede6c1df0fd7d"
	staleDecodeDigest = "b2977171443b41f7a024e158170323652ba254ed20e99afffed0701e9663dcee"
	staleFastManifest = `{
  "version": 1,
  "matrix_digest": "` + staleFastDigest + `",
  "matrix": {"benches": ["ocean"], "kinds": ["sp"], "seeds": [42], "scales": [0.25], "threads": 16, "mode": "fast"},
  "jobs": {},
  "sweeps": {
    "` + staleFastDigest + `": {"benches": ["ocean"], "kinds": ["sp"], "seeds": [42], "scales": [0.25], "threads": 16, "mode": "fast"}
  }
}`
)

// TestStoreRefusesStaleMatrix: a recorded matrix that no longer expands to
// its recorded digest is refused, with both digests named, instead of being
// resumed as a different (here: detailed) sweep.
func TestStoreRefusesStaleMatrix(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(staleFastManifest), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: stale fast-mode matrix accepted", what)
		}
		for _, d := range []string{staleFastDigest, staleDecodeDigest} {
			if !strings.Contains(err.Error(), d) {
				t.Errorf("%s: error %q does not name digest %s", what, err, d)
			}
		}
	}
	_, ok, err := store.Matrix()
	if !ok {
		t.Fatal("Matrix: recorded matrix not found")
	}
	names("Matrix", err)
}
