package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spcoh/internal/event"
	"spcoh/internal/scenario"
	"spcoh/internal/sim"
	"spcoh/internal/sweep"
)

// fakeResult builds a deterministic synthetic result from the job spec —
// the same cell computes the same bytes wherever and whenever it runs,
// which is the property the whole server leans on.
func fakeResult(j sweep.Job) *sim.Result {
	r := &sim.Result{Benchmark: j.Bench, Predictor: j.Kind}
	r.Cycles = event.Time(1000 + 13*int64(len(j.Bench)) + 7*j.Seed)
	r.Nodes.Misses = uint64(100 + len(j.Kind))
	r.Nodes.Communicating = 40
	r.Nodes.NonCommunicating = r.Nodes.Misses - 40
	r.Net.Bytes = uint64(4096 * (j.Seed + 1))
	return r
}

// countingExec is a stub ExecFunc that counts executions per job key.
type countingExec struct {
	runs   atomic.Int64
	failFn func(j sweep.Job) bool // nil = never fail
}

func (c *countingExec) exec(j sweep.Job, spec *scenario.Spec) (*sim.Result, error) {
	c.runs.Add(1)
	if c.failFn != nil && c.failFn(j) {
		return nil, errInjected
	}
	return fakeResult(j), nil
}

var errInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "injected failure" }

func testServerMatrix() sweep.Matrix {
	return sweep.Matrix{
		Benches: []string{"x264", "streamcluster"},
		Kinds:   []string{"dir", "sp"},
		Seeds:   []int64{42},
		Scales:  []float64{0.25},
		Threads: 16,
	}
}

// startServer builds a Server over dir and exposes it via httptest.
func startServer(t *testing.T, dir string, opt Options) (*Server, *Client, func()) {
	t.Helper()
	opt.Store = openStore(t, dir)
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	return srv, NewClient(hs.URL), func() { hs.Close(); srv.Close() }
}

// drainWorker runs one remote worker until the server reports drained.
func drainWorker(t *testing.T, c *Client, id string, slots int, exec ExecFunc) {
	t.Helper()
	RunWorker(context.Background(), c, WorkerOptions{
		ID:    id,
		Slots: slots,
		Poll:  5 * time.Millisecond,
		Drain: true,
		Exec:  exec,
	})
}

// localRunJSON renders the matrix through RunLocal (the local `spsweep
// run`) on a fresh store with the same result function.
func localRunJSON(t *testing.T, m sweep.Matrix) []byte {
	t.Helper()
	ex := &countingExec{}
	rep, err := RunLocal(context.Background(), m, Options{Store: openStore(t, t.TempDir()), LocalWorkers: 1, Exec: ex.exec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("local reference run failed: %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.FormatJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openStore(t *testing.T, dir string) *sweep.Store {
	t.Helper()
	store, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func serverResultsJSON(t *testing.T, c *Client, sweepID string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Results(sweepID, "json", &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenMatrix and goldenFailKey mirror internal/sweep's report golden
// test: the merged report of this matrix, with fakeResult in every cell
// but one failed, is pinned in ../sweep/testdata.
func goldenMatrix() sweep.Matrix {
	m := testServerMatrix()
	m.Seeds = []int64{42, 7}
	return m
}

const goldenFailKey = "x264/sp/t16/x0.25/s7"

// TestServerResultsByteIdenticalToLocalRun is the sweep server's core
// acceptance: its merged output in every format matches the pinned bytes
// of a local `spsweep run`, failed cell included, for more than one
// worker count.
func TestServerResultsByteIdenticalToLocalRun(t *testing.T) {
	m := goldenMatrix()
	for _, workers := range []int{1, 3} {
		ex := &countingExec{failFn: func(j sweep.Job) bool { return j.Key() == goldenFailKey }}
		_, c, stop := startServer(t, t.TempDir(), Options{Exec: ex.exec})
		sub, err := c.Submit(&SubmitRequest{Matrix: m})
		if err != nil {
			t.Fatal(err)
		}
		if sub.Counts.Jobs != len(m.Jobs()) || sub.Counts.Pending != sub.Counts.Jobs {
			t.Fatalf("workers=%d: submit counts %+v", workers, sub.Counts)
		}
		drainWorker(t, c, "w", workers, ex.exec)
		for _, f := range []struct{ format, file string }{
			{"table", "report_golden.txt"},
			{"csv", "report_golden.csv"},
			{"json", "report_golden.json"},
		} {
			want, err := os.ReadFile(filepath.Join("..", "sweep", "testdata", f.file))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := c.Results(sub.SweepID, f.format, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("workers=%d: server %s results differ from the local-run golden\nserver:\n%s\ngolden:\n%s",
					workers, f.format, got.Bytes(), want)
			}
		}
		if n := ex.runs.Load(); n != int64(len(m.Jobs())) {
			t.Fatalf("workers=%d: %d executions for %d jobs", workers, n, len(m.Jobs()))
		}
		stop()
	}
}

// TestServerRestartResumesFromStore kills the server mid-sweep (some
// cells done, some failed) and verifies the next life recomputes only
// the unfinished cells and still produces the local-run bytes.
func TestServerRestartResumesFromStore(t *testing.T) {
	m := testServerMatrix()
	dir := t.TempDir()
	jobs := m.Jobs()

	// Life 1: the executor fails every "sp" cell; with Retries=0 they go
	// terminally failed while the "dir" cells complete into the store.
	ex1 := &countingExec{failFn: func(j sweep.Job) bool { return j.Kind == "sp" }}
	_, c1, stop1 := startServer(t, dir, Options{Exec: ex1.exec, Retries: 0})
	sub, err := c1.Submit(&SubmitRequest{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	drainWorker(t, c1, "life1", 2, ex1.exec)
	st, err := c1.Status(sub.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Counts.Done != 2 || st.Counts.Failed != 2 {
		t.Fatalf("life 1 counts: %+v", st.Counts)
	}
	stop1() // crash: in-memory lease table and sweep registry are gone

	// The store's manifest carries the sweep and the failure ledger.
	store, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ids := store.SweepIDs(); len(ids) != 1 || ids[0] != sub.SweepID {
		t.Fatalf("sweep not persisted in the manifest: %v", ids)
	}
	if failed := store.FailedCells(); len(failed) != 2 {
		t.Fatalf("failure ledger after life 1: %v", failed)
	}

	// Life 2: a fresh server over the same store re-adopts the sweep with
	// zero resubmission; the healthy executor finishes only what's left.
	ex2 := &countingExec{}
	_, c2, stop2 := startServer(t, dir, Options{Exec: ex2.exec})
	defer stop2()
	st, err = c2.Status(sub.SweepID)
	if err != nil {
		t.Fatalf("re-adopted sweep not visible: %v", err)
	}
	if st.Counts.Done != 2 || st.Counts.Cached != 2 || st.Counts.Pending != 2 {
		t.Fatalf("life 2 adoption counts: %+v", st.Counts)
	}
	drainWorker(t, c2, "life2", 2, ex2.exec)

	// Zero recomputation of the cells life 1 completed.
	if n := ex2.runs.Load(); n != 2 {
		t.Fatalf("life 2 executed %d cells, want exactly the 2 unfinished ones", n)
	}
	got := serverResultsJSON(t, c2, sub.SweepID)
	want := localRunJSON(t, m)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-restart results differ from local run\nserver:\n%s\nlocal:\n%s", got, want)
	}
	// Success clears the failure ledger.
	store2, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if failed := store2.FailedCells(); len(failed) != 0 {
		t.Fatalf("failure ledger not cleared by completion: %v", failed)
	}
	_ = jobs
}

// TestRestartRefusesStaleSweep: a registered sweep whose matrix no longer
// has the digest it is registered under — here one recorded with the
// removed fast mode — stops the server from starting, with both digests in
// the error, instead of being re-adopted as a detailed sweep.
func TestRestartRefusesStaleSweep(t *testing.T) {
	const (
		recorded = "2bcdc7afb60731a6b8c090fe8266e2defb09512867f75483f1aede6c1df0fd7d"
		decoded  = "b2977171443b41f7a024e158170323652ba254ed20e99afffed0701e9663dcee"
		fast     = `{"benches":["ocean"],"kinds":["sp"],"seeds":[42],"scales":[0.25],"threads":16,"mode":"fast"}`
	)
	dir := t.TempDir()
	man := `{"version":1,"jobs":{},"sweeps":{"` + recorded + `":` + fast + `}}`
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(man), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Options{Store: store})
	if err == nil {
		t.Fatal("server re-adopted a stale fast-mode sweep")
	}
	for _, d := range []string{recorded, decoded} {
		if !strings.Contains(err.Error(), d) {
			t.Errorf("error %q does not name digest %s", err, d)
		}
	}
}

// TestDuplicateCompletionOverHTTP expires a lease with a fake clock,
// lets a second worker complete the job, then delivers the first
// worker's late result: first write wins, the second is a no-op, and the
// result bytes are untouched.
func TestDuplicateCompletionOverHTTP(t *testing.T) {
	m := testServerMatrix()
	clk := newFakeClock()
	ex := &countingExec{}
	srv, c, stop := startServer(t, t.TempDir(), Options{
		Exec: ex.exec, LeaseTTL: time.Minute, Retries: 2, now: clk.now,
	})
	defer stop()
	sub, err := c.Submit(&SubmitRequest{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}

	g1, _, err := c.Lease("w1")
	if err != nil || g1 == nil {
		t.Fatalf("w1 lease: %v %v", g1, err)
	}
	clk.advance(2 * time.Minute)
	srv.q.expire()               // the ticker isn't running; fire it by hand
	clk.advance(5 * time.Second) // pass the requeue backoff gate
	g2, _, err := c.Lease("w2")
	if err != nil || g2 == nil || g2.Job.Key() != g1.Job.Key() {
		t.Fatalf("w2 should re-lease %s: got %v err=%v", g1.Job.Key(), g2, err)
	}
	if err := c.Heartbeat(g1.LeaseID); err != ErrLeaseGone {
		t.Fatalf("heartbeat on expired lease over HTTP: %v, want ErrLeaseGone", err)
	}

	res := fakeResult(g2.Job)
	if dup, err := c.Complete(g2.LeaseID, res); err != nil || dup {
		t.Fatalf("w2 complete: dup=%v err=%v", dup, err)
	}
	// w1's late push: same deterministic bytes, flagged duplicate, no-op.
	if dup, err := c.Complete(g1.LeaseID, fakeResult(g1.Job)); err != nil || !dup {
		t.Fatalf("w1 late complete: dup=%v err=%v", dup, err)
	}
	st, err := c.Status(sub.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range st.Jobs {
		if js.Key == g1.Job.Key() && js.State != "done" {
			t.Fatalf("job state after duplicate completion: %+v", js)
		}
	}
}

// TestSpecSweepOverServer pushes a scenario-spec matrix through the HTTP
// path: the spec travels in the submit, is digest-verified server-side,
// re-homed into the store, and re-verified by the worker before running.
func TestSpecSweepOverServer(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "workload", "specs", "03-ocean.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	m := sweep.Matrix{
		Specs:   []sweep.SpecRef{{Name: spec.Name, Path: "client-local.json", Digest: spec.Digest()}},
		Kinds:   []string{"sp"},
		Seeds:   []int64{42},
		Scales:  []float64{0.25},
		Threads: 16,
	}

	var sawSpec atomic.Int64
	exec := func(j sweep.Job, sp *scenario.Spec) (*sim.Result, error) {
		if sp == nil || sp.Digest() != j.SpecDigest {
			t.Errorf("worker got spec %v for job wanting %.12s", sp, j.SpecDigest)
		}
		sawSpec.Add(1)
		return fakeResult(j), nil
	}
	_, c, stop := startServer(t, t.TempDir(), Options{Exec: exec})
	defer stop()

	// Submitting without the spec upload is rejected.
	if _, err := c.Submit(&SubmitRequest{Matrix: m}); err == nil ||
		!strings.Contains(err.Error(), "not uploaded") {
		t.Fatalf("submit without spec upload: %v", err)
	}
	// Submitting with content that does not hash to the claimed digest is
	// rejected.
	tampered := bytes.Replace(raw, []byte(`"version"`), []byte(`"version" `), 1)
	if _, err := c.Submit(&SubmitRequest{
		Matrix: m,
		Specs:  []SpecUpload{{Name: spec.Name, Digest: "0000000000000000", Content: tampered}},
	}); err == nil {
		t.Fatal("digest-mismatched spec upload accepted")
	}

	sub, err := c.Submit(&SubmitRequest{
		Matrix: m,
		Specs:  []SpecUpload{{Name: spec.Name, Digest: spec.Digest(), Content: raw}},
	})
	if err != nil {
		t.Fatal(err)
	}
	drainWorker(t, c, "w", 1, exec)
	if sawSpec.Load() != 1 {
		t.Fatalf("spec cell executed %d times, want 1", sawSpec.Load())
	}
	st, err := c.Status(sub.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Counts.Terminal() || st.Counts.Failed != 0 {
		t.Fatalf("spec sweep counts: %+v", st.Counts)
	}
}

// TestEventsStreamReplaysAndCompletes checks the NDJSON stream: a
// subscriber arriving after the sweep finished still sees every job
// event and the final complete event.
func TestEventsStreamReplaysAndCompletes(t *testing.T) {
	m := testServerMatrix()
	ex := &countingExec{}
	_, c, stop := startServer(t, t.TempDir(), Options{Exec: ex.exec})
	defer stop()
	sub, err := c.Submit(&SubmitRequest{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	drainWorker(t, c, "w", 2, ex.exec)

	var jobEvents int
	var final *Counts
	err = c.StreamEvents(sub.SweepID, func(ev Event) bool {
		switch ev.Type {
		case "job":
			jobEvents++
			if ev.Job == nil || ev.Job.State != "done" {
				t.Errorf("bad job event: %+v", ev)
			}
		case "complete":
			final = ev.Counts
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if jobEvents != len(m.Jobs()) || final == nil || final.Done != len(m.Jobs()) {
		t.Fatalf("stream: %d job events, final=%+v", jobEvents, final)
	}
}

// TestSubmitValidation rejects matrices no worker could run.
func TestSubmitValidation(t *testing.T) {
	_, c, stop := startServer(t, t.TempDir(), Options{})
	defer stop()
	base := testServerMatrix()

	cases := []struct {
		name string
		mut  func(m *sweep.Matrix)
	}{
		{"unknown bench", func(m *sweep.Matrix) { m.Benches = []string{"nosuch"} }},
		{"unknown kind", func(m *sweep.Matrix) { m.Kinds = []string{"nosuch"} }},
		{"no kinds", func(m *sweep.Matrix) { m.Kinds = nil }},
		{"no seeds", func(m *sweep.Matrix) { m.Seeds = nil }},
		{"bad scale", func(m *sweep.Matrix) { m.Scales = []float64{-1} }},
		{"bad threads", func(m *sweep.Matrix) { m.Threads = 0 }},
		{"empty", func(m *sweep.Matrix) { m.Benches = nil }},
	}
	for _, tc := range cases {
		m := base
		tc.mut(&m)
		if _, err := c.Submit(&SubmitRequest{Matrix: m}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Resubmitting the same valid matrix is idempotent.
	a, err := c.Submit(&SubmitRequest{Matrix: base})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(&SubmitRequest{Matrix: base})
	if err != nil {
		t.Fatal(err)
	}
	if a.SweepID != b.SweepID || b.Counts.Jobs != a.Counts.Jobs {
		t.Fatalf("resubmit not idempotent: %+v vs %+v", a, b)
	}
}

// TestHandleSubmitRejectsUnsupportedThreads: a thread count no machine is
// sized for bounces with 400 at submission, and no sweep is registered
// (before the shared matrix check, every job failed at execution instead).
func TestHandleSubmitRejectsUnsupportedThreads(t *testing.T) {
	srv, c, stop := startServer(t, t.TempDir(), Options{})
	defer stop()
	m := testServerMatrix()
	m.Threads = 17
	body, err := json.Marshal(SubmitRequest{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, APIBase+"/sweeps", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unsupported node count 17") {
		t.Fatalf("submit with 17 threads: %d %s, want 400 naming the node count", rec.Code, rec.Body)
	}
	list, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 0 || len(srv.sweepIDs()) != 0 {
		t.Fatalf("rejected submit registered sweeps: %+v", list.Sweeps)
	}
}

// TestResultsBeforeTerminalConflicts: the merge endpoint refuses to
// render a sweep that could still change.
func TestResultsBeforeTerminalConflicts(t *testing.T) {
	m := testServerMatrix()
	ex := &countingExec{}
	_, c, stop := startServer(t, t.TempDir(), Options{Exec: ex.exec})
	defer stop()
	sub, err := c.Submit(&SubmitRequest{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Results(sub.SweepID, "json", &buf); err == nil ||
		!strings.Contains(err.Error(), "not finished") {
		t.Fatalf("results on a pending sweep: %v", err)
	}
}

// TestCloseDuringAttemptLeavesLedgerClean stops a daemon while its local
// pool is inside an attempt, with no retry budget: the cut attempt is
// cancelled, not failed, so it must not reach the store's failure ledger
// (which would make `spsweep status` fail for a merely stopped daemon).
func TestCloseDuringAttemptLeavesLedgerClean(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	blocking := func(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) {
		started <- struct{}{}
		<-release
		return fakeResult(j), nil
	}
	dir := t.TempDir()
	srv, c, stop := startServer(t, dir, Options{Exec: blocking, Retries: 0, LocalWorkers: 1, Poll: time.Millisecond})
	defer stop()
	sub, err := c.Submit(&SubmitRequest{Matrix: testServerMatrix()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	<-started
	srv.Close()

	if failed := openStore(t, dir).FailedCells(); len(failed) != 0 {
		t.Fatalf("stopping the daemon wrote the failure ledger: %v", failed)
	}
	st, err := c.Status(sub.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Counts.Failed != 0 {
		t.Fatalf("a cancelled attempt failed its job: %+v", st.Counts)
	}
}

// TestZeroBackoffMeansNoGate: Backoff 0 requeues a failed job for
// immediate re-lease (`spsweepd -backoff 0`, and local runs, whose
// -backoff defaults to 0).
func TestZeroBackoffMeansNoGate(t *testing.T) {
	clk := newFakeClock()
	ex := &countingExec{}
	srv, c, stop := startServer(t, t.TempDir(), Options{Exec: ex.exec, Retries: 1, Backoff: 0, now: clk.now})
	defer stop()
	if _, err := c.Submit(&SubmitRequest{Matrix: testServerMatrix()}); err != nil {
		t.Fatal(err)
	}
	g1, _, err := srv.Lease("w")
	if err != nil || g1 == nil {
		t.Fatalf("lease: %v %v", g1, err)
	}
	if err := srv.Fail(g1.LeaseID, "transient"); err != nil {
		t.Fatal(err)
	}
	g2, _, err := srv.Lease("w") // the clock has not moved
	if err != nil || g2 == nil || g2.Job.Key() != g1.Job.Key() {
		t.Fatalf("re-lease after a failure with zero backoff: got %v err=%v, want %s", g2, err, g1.Job.Key())
	}
}

// TestRunLocalRunsOnlyItsMatrix: a local run over a store a daemon also
// uses schedules its own cells only, not the sweeps registered there.
func TestRunLocalRunsOnlyItsMatrix(t *testing.T) {
	store := openStore(t, t.TempDir())
	other := testServerMatrix()
	other.Seeds = []int64{7}
	if err := store.AddSweep(other); err != nil {
		t.Fatal(err)
	}
	ex := &countingExec{}
	m := testServerMatrix()
	rep, err := RunLocal(context.Background(), m, Options{Store: store, LocalWorkers: 2, Exec: ex.exec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := ex.runs.Load(); n != int64(len(m.Jobs())) || rep.Executed != len(m.Jobs()) {
		t.Fatalf("executed %d cells (report: %d), want the matrix's %d", n, rep.Executed, len(m.Jobs()))
	}
	for _, j := range other.Jobs() {
		if _, ok := store.Lookup(j); ok {
			t.Fatalf("local run computed %s of a registered sweep", j.Key())
		}
	}
}
