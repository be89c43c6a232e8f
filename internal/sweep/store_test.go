package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"spcoh/internal/runcfg"
	"spcoh/internal/sim"
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
			// The engine recomputes and re-checkpoints transparently.
			rep := Run(context.Background(), []Job{j}, fakeRun, Options{Workers: 1, Store: reopened})
			if rep.Executed != 1 || rep.Failed != 0 {
				t.Fatalf("recompute after corruption: executed=%d failed=%d", rep.Executed, rep.Failed)
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

// TestResumeRecomputesNothing is the resume acceptance criterion: after an
// interrupted sweep, resuming executes only the pending jobs, and a second
// resume executes zero.
func TestResumeRecomputesNothing(t *testing.T) {
	dir := t.TempDir()
	jobs := testMatrix().Jobs()

	var mu sync.Mutex
	execCount := make(map[string]int)

	// Phase 1: interrupt after 5 completions (cancel mid-sweep).
	ctx, cancel := context.WithCancel(context.Background())
	interrupting := func(j Job) (*sim.Result, error) {
		mu.Lock()
		execCount[j.Key()]++
		if len(execCount) == 5 {
			cancel()
		}
		mu.Unlock()
		return fakeResult(j), nil
	}
	store1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store1.SetMatrix(testMatrix()); err != nil {
		t.Fatal(err)
	}
	rep1 := Run(ctx, jobs, interrupting, Options{Workers: 1, Store: store1})
	if rep1.Executed == 0 || rep1.Executed == len(jobs) {
		t.Fatalf("interrupt phase executed %d of %d; want a partial run", rep1.Executed, len(jobs))
	}
	// The checkpointed set is what resume must never recompute. (A job in
	// flight when the cancel landed may have run without being stored —
	// that one is legitimately re-executed.)
	completed := make(map[string]bool)
	for _, k := range store1.Completed() {
		completed[k] = true
	}
	if len(completed) == 0 || len(completed) == len(jobs) {
		t.Fatalf("checkpointed %d of %d; want a partial store", len(completed), len(jobs))
	}

	// Phase 2: resume with a fresh store handle (new process). Only
	// unstored jobs may execute.
	store2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resume := func(j Job) (*sim.Result, error) {
		if completed[j.Key()] {
			t.Errorf("checkpointed job %s re-executed on resume", j.Key())
		}
		return fakeResult(j), nil
	}
	rep2 := Run(context.Background(), jobs, resume, Options{Workers: 2, Store: store2})
	if rep2.Failed != 0 {
		t.Fatalf("resume failed %d jobs", rep2.Failed)
	}
	if rep2.Cached != len(completed) {
		t.Fatalf("resume cached %d, want %d (checkpointed set)", rep2.Cached, len(completed))
	}
	if rep2.Executed != len(jobs)-len(completed) {
		t.Fatalf("resume executed %d, want %d", rep2.Executed, len(jobs)-len(completed))
	}

	// Phase 3: a second resume recomputes zero jobs.
	store3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep3 := Run(context.Background(), jobs, func(j Job) (*sim.Result, error) {
		t.Errorf("job %s executed on fully-complete resume", j.Key())
		return fakeResult(j), nil
	}, Options{Workers: 4, Store: store3})
	if rep3.Executed != 0 || rep3.Cached != len(jobs) || rep3.Failed != 0 {
		t.Fatalf("full resume: executed=%d cached=%d failed=%d, want 0/%d/0",
			rep3.Executed, rep3.Cached, rep3.Failed, len(jobs))
	}

	// The merged output of the resumed run equals a from-scratch run: cache
	// recall is invisible in the report's renderings.
	var fresh, resumed bytes.Buffer
	if err := Run(context.Background(), jobs, fakeRun, Options{Workers: 1}).FormatJSON(&fresh); err != nil {
		t.Fatal(err)
	}
	if err := rep3.FormatJSON(&resumed); err != nil {
		t.Fatal(err)
	}
	if fresh.String() != resumed.String() {
		t.Fatal("resumed merged output differs from a from-scratch run")
	}
}

// staleFastManifest is a manifest written by a version that still had the
// fast simulation mode: its matrix carries "mode":"fast" and is recorded
// (as the local matrix and as a registered sweep) under the digest that
// version computed for it.
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
	if ids := store.SweepIDs(); len(ids) != 1 || ids[0] != staleFastDigest {
		t.Fatalf("SweepIDs = %v", ids)
	}
	_, ok, err = store.Sweep(staleFastDigest)
	if !ok {
		t.Fatal("Sweep: registered sweep not found")
	}
	names("Sweep", err)
}
