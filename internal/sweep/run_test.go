package sweep_test

// End-to-end behaviour of a sweep: every test here drives sweep.Run, the
// attempt loop behind `spsweep run` and `resume`.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"spcoh/internal/event"
	"spcoh/internal/scenario"
	"spcoh/internal/sim"
	"spcoh/internal/sweep"
)

// fakeResult builds a deterministic synthetic result from a job spec.
func fakeResult(j sweep.Job) *sim.Result {
	r := &sim.Result{Benchmark: j.Bench, Predictor: j.Kind}
	r.Cycles = event.Time(1000 + 13*int64(len(j.Bench)) + 7*j.Seed)
	r.Nodes.Misses = uint64(100 + len(j.Kind))
	r.Nodes.Communicating = 40
	r.Nodes.NonCommunicating = r.Nodes.Misses - 40
	r.Net.Bytes = uint64(4096 * (j.Seed + 1))
	return r
}

func fakeExec(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) { return fakeResult(j), nil }

func testMatrix() sweep.Matrix {
	return sweep.Matrix{
		Benches: []string{"beta", "alpha", "gamma"},
		Kinds:   []string{"sp", "dir"},
		Seeds:   []int64{42, 7},
		Scales:  []float64{0.25},
		Threads: 16,
	}
}

// oneCell is a matrix of a single job.
func oneCell(bench string) sweep.Matrix {
	return sweep.Matrix{Benches: []string{bench}, Kinds: []string{"sp"},
		Seeds: []int64{1}, Scales: []float64{1}, Threads: 16}
}

func openStore(t *testing.T, dir string) *sweep.Store {
	t.Helper()
	store, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// runLocal runs m to completion, on a fresh store unless opt names one.
func runLocal(t *testing.T, m sweep.Matrix, opt sweep.Options) *sweep.Report {
	t.Helper()
	if opt.Store == nil {
		opt.Store = openStore(t, t.TempDir())
	}
	rep, err := sweep.Run(context.Background(), m, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func renderJSON(t *testing.T, rep *sweep.Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.FormatJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMergeDeterminism: the merged output of an N-worker run is
// byte-identical to a single-worker run, for every renderer.
func TestMergeDeterminism(t *testing.T) {
	m := testMatrix()
	render := func(workers int) (string, string, string) {
		rep := runLocal(t, m, sweep.Options{Workers: workers, Exec: fakeExec})
		var tab, csv bytes.Buffer
		rep.FormatTable(&tab)
		if err := rep.FormatCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return tab.String(), csv.String(), renderJSON(t, rep)
	}
	tab1, csv1, js1 := render(1)
	for _, workers := range []int{2, 4, 8} {
		tabN, csvN, jsN := render(workers)
		if tabN != tab1 {
			t.Fatalf("table output differs between 1 and %d workers:\n%s\n---\n%s", workers, tab1, tabN)
		}
		if csvN != csv1 {
			t.Fatalf("csv output differs between 1 and %d workers", workers)
		}
		if jsN != js1 {
			t.Fatalf("json output differs between 1 and %d workers", workers)
		}
	}
}

// TestReportOrderUnderAdversarialScheduling: jobs finishing in reverse
// order still merge in key order.
func TestReportOrderUnderAdversarialScheduling(t *testing.T) {
	m := testMatrix()
	jobs := m.Jobs()
	var mu sync.Mutex
	launched := 0
	slow := func(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) {
		mu.Lock()
		launched++
		delay := time.Duration(len(jobs)-launched) * time.Millisecond
		mu.Unlock()
		time.Sleep(delay) // earlier-launched (lower-key) jobs finish later
		return fakeResult(j), nil
	}
	rep := runLocal(t, m, sweep.Options{Workers: len(jobs), Exec: slow})
	for i, jr := range rep.Jobs {
		if jr.Job.Key() != jobs[i].Key() {
			t.Fatalf("report slot %d = %s, want %s (completion order leaked)", i, jr.Job.Key(), jobs[i].Key())
		}
	}
}

func TestPanicRecovery(t *testing.T) {
	m := testMatrix()
	jobs := m.Jobs()
	bomb := jobs[3].Key()
	exec := func(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) {
		if j.Key() == bomb {
			panic("boom")
		}
		return fakeResult(j), nil
	}
	rep := runLocal(t, m, sweep.Options{Workers: 4, Exec: exec})
	if rep.Failed != 1 || rep.Executed != len(jobs)-1 {
		t.Fatalf("failed=%d executed=%d, want 1/%d", rep.Failed, rep.Executed, len(jobs)-1)
	}
	for _, jr := range rep.Jobs {
		if jr.Job.Key() == bomb {
			if jr.Err == nil || !strings.Contains(jr.Err.Error(), "boom") {
				t.Fatalf("panic not converted to error: %v", jr.Err)
			}
		} else if jr.Err != nil {
			t.Fatalf("innocent job %s failed: %v", jr.Job.Key(), jr.Err)
		}
	}
}

func TestTimeoutAndRetry(t *testing.T) {
	hang := func(sweep.Job, *scenario.Spec) (*sim.Result, error) {
		time.Sleep(5 * time.Second)
		return nil, nil
	}
	start := time.Now()
	rep := runLocal(t, oneCell("hang"), sweep.Options{Workers: 1, Timeout: 30 * time.Millisecond, Retries: 1, Exec: hang})
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.Failed)
	}
	jr := rep.Jobs[0]
	if jr.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (1 + 1 retry)", jr.Attempts)
	}
	if jr.Err == nil || !strings.Contains(jr.Err.Error(), "timed out") {
		t.Fatalf("err = %v, want timeout", jr.Err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout did not bound the run: %s", elapsed)
	}
}

func TestRetryEventuallySucceeds(t *testing.T) {
	m := testMatrix()
	m.Kinds, m.Seeds = []string{"sp"}, []int64{42} // three cells
	var mu sync.Mutex
	tries := make(map[string]int)
	flaky := func(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) {
		mu.Lock()
		tries[j.Key()]++
		n := tries[j.Key()]
		mu.Unlock()
		if n == 1 {
			return nil, errors.New("transient")
		}
		return fakeResult(j), nil
	}
	rep := runLocal(t, m, sweep.Options{Workers: 2, Retries: 2, Exec: flaky})
	if rep.Failed != 0 || rep.Executed != 3 {
		t.Fatalf("failed=%d executed=%d, want 0/3", rep.Failed, rep.Executed)
	}
	for _, jr := range rep.Jobs {
		if jr.Attempts != 2 {
			t.Fatalf("%s attempts = %d, want 2", jr.Job.Key(), jr.Attempts)
		}
	}
}

func TestRetriesAreBounded(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	alwaysFail := func(sweep.Job, *scenario.Spec) (*sim.Result, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return nil, errors.New("permanent")
	}
	rep := runLocal(t, oneCell("alpha"), sweep.Options{Workers: 1, Retries: 3, Exec: alwaysFail})
	if calls != 4 {
		t.Fatalf("executor called %d times, want 4 (1 + 3 retries)", calls)
	}
	if rep.Failed != 1 || !strings.Contains(rep.Jobs[0].Err.Error(), "permanent") {
		t.Fatalf("want permanent failure, got %v", rep.Jobs[0].Err)
	}
}

// TestContextCancelMarksPendingJobs: a cancelled run returns no report,
// and every cell it did not finish stays pending in the store — neither
// checkpointed nor in the failure ledger — for a resume to pick up.
func TestContextCancelMarksPendingJobs(t *testing.T) {
	m := testMatrix()
	jobs := m.Jobs()
	store := openStore(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	started := 0
	exec := func(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) {
		mu.Lock()
		started++
		if started == 3 {
			cancel()
		}
		mu.Unlock()
		return fakeResult(j), nil
	}
	rep, err := sweep.Run(ctx, m, sweep.Options{Store: store, Workers: 1, Exec: exec}, nil)
	if !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("cancelled run: rep=%v err=%v, want no report and context.Canceled", rep, err)
	}
	done := len(store.Completed())
	if done < 2 || done >= len(jobs) {
		t.Fatalf("checkpointed %d of %d cells, want the >= 2 finished before the cancel", done, len(jobs))
	}
	if failed := store.FailedCells(); len(failed) != 0 {
		t.Fatalf("cancellation reached the failure ledger: %v", failed)
	}
}

func TestProgressSeesEveryJob(t *testing.T) {
	m := testMatrix()
	seen := make(map[string]int)
	progress := func(jr sweep.JobResult) { seen[jr.Job.Key()]++ } // serialized by Run
	rep, err := sweep.Run(context.Background(), m, sweep.Options{
		Store: openStore(t, t.TempDir()), Workers: 4, Exec: fakeExec,
	}, progress)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(m.Jobs()) {
		t.Fatalf("progress saw %d jobs, want %d", len(seen), len(m.Jobs()))
	}
	for _, j := range m.Jobs() {
		if n := seen[j.Key()]; n != 1 {
			t.Fatalf("job %s reported %d times", j.Key(), n)
		}
	}
	if rep.Executed != len(m.Jobs()) {
		t.Fatalf("executed = %d, want %d", rep.Executed, len(m.Jobs()))
	}
}

// TestSummaryCounts: the side-band summary carries scheduling detail the
// merged output omits, including a non-zero wall time for every executed
// cell (the last attempt's wall time).
func TestSummaryCounts(t *testing.T) {
	m := testMatrix()
	jobs := m.Jobs()
	rep := runLocal(t, m, sweep.Options{Workers: 2, Exec: fakeExec})
	s := rep.Summarize(m, 2)
	if s.Jobs != len(jobs) || s.Executed != len(jobs) || s.Cached != 0 || s.Failed != 0 {
		t.Fatalf("summary counts wrong: %+v", s)
	}
	if s.Workers != 2 || s.MatrixDigest != m.Digest() || s.WallSeconds <= 0 {
		t.Fatalf("summary metadata wrong: %+v", s)
	}
	if len(s.PerJob) != len(jobs) {
		t.Fatalf("per-job timings = %d, want %d", len(s.PerJob), len(jobs))
	}
	for i, pj := range s.PerJob {
		if i > 0 && s.PerJob[i-1].Key >= pj.Key {
			t.Fatal("summary per-job records not in key order")
		}
		if pj.Seconds <= 0 || pj.Attempts != 1 {
			t.Fatalf("executed cell %s: seconds=%v attempts=%d", pj.Key, pj.Seconds, pj.Attempts)
		}
	}
}

func TestFormatJSONOmitsSchedulingState(t *testing.T) {
	m := testMatrix()
	m.Benches, m.Seeds = []string{"alpha"}, []int64{42} // two cells
	out := renderJSON(t, runLocal(t, m, sweep.Options{Workers: 2, Exec: fakeExec}))
	for _, banned := range []string{"wall", "seconds", "attempts", "cached"} {
		if strings.Contains(strings.ToLower(out), banned) {
			t.Fatalf("merged JSON leaks scheduling state %q:\n%s", banned, out)
		}
	}
}

func TestEngineDefaultsWorkers(t *testing.T) {
	// Workers <= 0 must still complete (defaults to NumCPU).
	m := testMatrix()
	m.Benches, m.Seeds = []string{"alpha"}, []int64{42}
	rep := runLocal(t, m, sweep.Options{Exec: fakeExec})
	if rep.Executed != 2 {
		t.Fatalf("executed = %d, want 2", rep.Executed)
	}
}

func TestRetryDelayPureAndBounded(t *testing.T) {
	const base = time.Second

	// Pure: the same inputs always produce the same delay.
	for _, key := range []string{"ocean/sp/t16/x0.25/s42", "fmm/dir/t16/x1/s7"} {
		for attempt := 2; attempt <= 6; attempt++ {
			a := sweep.RetryDelay(key, attempt, base, 99)
			b := sweep.RetryDelay(key, attempt, base, 99)
			if a != b {
				t.Fatalf("RetryDelay(%q, %d) not deterministic: %v vs %v", key, attempt, a, b)
			}
			// Bounded by the jitter envelope around base << (attempt-2).
			lo := time.Duration(float64(base<<(attempt-2)) * 0.5)
			hi := time.Duration(float64(base<<(attempt-2)) * 1.5)
			if a < lo || a >= hi {
				t.Fatalf("RetryDelay(%q, %d) = %v outside [%v, %v)", key, attempt, a, lo, hi)
			}
		}
	}

	// The first attempt and a zero base never wait.
	if d := sweep.RetryDelay("k", 1, base, 0); d != 0 {
		t.Fatalf("attempt 1 delayed %v", d)
	}
	if d := sweep.RetryDelay("k", 3, 0, 0); d != 0 {
		t.Fatalf("zero base delayed %v", d)
	}

	// Different seeds and different keys decorrelate the jitter (with the
	// same exponent the raw delay would otherwise collide).
	if sweep.RetryDelay("k", 2, base, 1) == sweep.RetryDelay("k", 2, base, 2) &&
		sweep.RetryDelay("k", 3, base, 1) == sweep.RetryDelay("k", 3, base, 2) {
		t.Fatal("seed does not influence the jitter")
	}
	if sweep.RetryDelay("a", 2, base, 0) == sweep.RetryDelay("b", 2, base, 0) &&
		sweep.RetryDelay("a", 3, base, 0) == sweep.RetryDelay("b", 3, base, 0) {
		t.Fatal("key does not influence the jitter")
	}

	// The exponent caps: absurd attempt numbers must not overflow.
	if d := sweep.RetryDelay("k", 1000, time.Millisecond, 0); d <= 0 || d > time.Duration(1)<<40 {
		t.Fatalf("capped delay out of range: %v", d)
	}
}

// TestExecutorAppliesBackoffBetweenAttempts: a failed attempt holds the
// cell back for RetryDelay before the next attempt.
func TestExecutorAppliesBackoffBetweenAttempts(t *testing.T) {
	m := oneCell("alpha")
	key := m.Jobs()[0].Key()
	attempts := 0
	exec := func(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) {
		attempts++
		if attempts < 3 {
			return nil, errors.New("transient")
		}
		return fakeResult(j), nil
	}
	start := time.Now()
	rep := runLocal(t, m, sweep.Options{Workers: 1, Retries: 2,
		Backoff: 5 * time.Millisecond, BackoffSeed: 7, Exec: exec})
	if jr := rep.Jobs[0]; jr.Err != nil || jr.Attempts != 3 {
		t.Fatalf("run: err=%v attempts=%d", jr.Err, jr.Attempts)
	}
	// Attempts 2 and 3 each waited RetryDelay(key, k, 5ms, 7).
	want := sweep.RetryDelay(key, 2, 5*time.Millisecond, 7) + sweep.RetryDelay(key, 3, 5*time.Millisecond, 7)
	if elapsed := time.Since(start); elapsed < want {
		t.Fatalf("run waited %v, schedule demands at least %v", elapsed, want)
	}
}

func TestBackoffSleepIsInterruptible(t *testing.T) {
	always := func(sweep.Job, *scenario.Spec) (*sim.Result, error) { return nil, errors.New("always") }
	store := openStore(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sweep.Run(ctx, oneCell("alpha"), sweep.Options{Store: store, Workers: 1,
			Retries: 5, Backoff: time.Hour, Exec: always}, nil) // would wait forever without cancellation
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled backoff: err=%v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backoff wait ignored cancellation")
	}
}

func TestFailureLedgerRecordsAndClears(t *testing.T) {
	dir := t.TempDir()
	m := testMatrix()
	bad := m.Jobs()[0].Key()

	// One job fails every attempt: it lands in the ledger.
	exec := func(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) {
		if j.Key() == bad {
			return nil, errors.New("injected")
		}
		return fakeResult(j), nil
	}
	rep := runLocal(t, m, sweep.Options{Store: openStore(t, dir), Workers: 2, Retries: 1, Exec: exec})
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.Failed)
	}

	// The ledger survives a store reopen (it lives in the manifest).
	store2 := openStore(t, dir)
	if failed := store2.FailedCells(); len(failed) != 1 || failed[bad] != "injected" {
		t.Fatalf("ledger after failing run: %v", failed)
	}

	// A successful rerun clears the entry.
	rep = runLocal(t, m, sweep.Options{Store: store2, Workers: 2, Exec: fakeExec})
	if rep.Failed != 0 {
		t.Fatalf("healthy rerun failed %d jobs", rep.Failed)
	}
	if failed := store2.FailedCells(); len(failed) != 0 {
		t.Fatalf("ledger not cleared by success: %v", failed)
	}
}

// TestCancellationNeverReachesLedger cancels a run while every worker
// slot is inside an attempt: the cut attempts report nothing, so the
// failure ledger stays empty and no cell is checkpointed.
func TestCancellationNeverReachesLedger(t *testing.T) {
	const slots = 2
	store := openStore(t, t.TempDir())
	started := make(chan struct{}, slots)
	release := make(chan struct{})
	defer close(release)
	blocking := func(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) {
		started <- struct{}{}
		<-release
		return fakeResult(j), nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sweep.Run(ctx, testMatrix(), sweep.Options{Store: store, Workers: slots, Exec: blocking}, nil)
		done <- err
	}()
	for i := 0; i < slots; i++ {
		<-started
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err=%v, want context.Canceled", err)
	}
	if failed := store.FailedCells(); len(failed) != 0 {
		t.Fatalf("cancellation polluted the failure ledger: %v", failed)
	}
	if n := len(store.Completed()); n != 0 {
		t.Fatalf("%d cells checkpointed by a run cut before any finished", n)
	}
}

// TestCloseDuringAttemptLeavesLedgerClean stops a one-worker run with no
// retry budget while its single attempt is in flight: the cut attempt is
// cancelled, not failed, so progress never sees it fail, the ledger on
// disk stays empty (`spsweep status` does not call a stopped sweep
// failed), and a resume runs the cell and fails nothing.
func TestCloseDuringAttemptLeavesLedgerClean(t *testing.T) {
	dir := t.TempDir()
	m := oneCell("alpha")
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	blocking := func(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) {
		started <- struct{}{}
		<-release
		return fakeResult(j), nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	var seen []sweep.JobResult
	done := make(chan error, 1)
	go func() {
		_, err := sweep.Run(ctx, m, sweep.Options{Store: openStore(t, dir), Workers: 1, Retries: 0, Exec: blocking},
			func(jr sweep.JobResult) { seen = append(seen, jr) })
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("stopped run: err=%v, want context.Canceled", err)
	}
	if len(seen) != 0 {
		t.Fatalf("progress saw an outcome for a cut attempt: %+v", seen)
	}

	store := openStore(t, dir)
	if failed := store.FailedCells(); len(failed) != 0 {
		t.Fatalf("stopping the run wrote the failure ledger: %v", failed)
	}
	rep := runLocal(t, m, sweep.Options{Store: store, Workers: 1, Exec: fakeExec})
	if rep.Failed != 0 || rep.Executed != 1 {
		t.Fatalf("resume after a stop: executed=%d failed=%d, want 1/0", rep.Executed, rep.Failed)
	}
}

// TestResumeRecomputesNothing is the resume acceptance criterion: after an
// interrupted sweep, resuming executes only the pending jobs, and a second
// resume executes zero.
func TestResumeRecomputesNothing(t *testing.T) {
	dir := t.TempDir()
	m := testMatrix()
	jobs := m.Jobs()

	// Phase 1: interrupt after 5 executions (cancel mid-sweep).
	var mu sync.Mutex
	execCount := make(map[string]int)
	ctx, cancel := context.WithCancel(context.Background())
	interrupting := func(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) {
		mu.Lock()
		execCount[j.Key()]++
		if len(execCount) == 5 {
			cancel()
		}
		mu.Unlock()
		return fakeResult(j), nil
	}
	store1 := openStore(t, dir)
	if err := store1.SetMatrix(m); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Run(ctx, m, sweep.Options{Store: store1, Workers: 1, Exec: interrupting}, nil); err == nil {
		t.Fatal("interrupted run reported success")
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
	resume := func(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) {
		if completed[j.Key()] {
			t.Errorf("checkpointed job %s re-executed on resume", j.Key())
		}
		return fakeResult(j), nil
	}
	rep2 := runLocal(t, m, sweep.Options{Store: openStore(t, dir), Workers: 2, Exec: resume})
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
	never := func(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) {
		t.Errorf("job %s executed on fully-complete resume", j.Key())
		return fakeResult(j), nil
	}
	rep3 := runLocal(t, m, sweep.Options{Store: openStore(t, dir), Workers: 4, Exec: never})
	if rep3.Executed != 0 || rep3.Cached != len(jobs) || rep3.Failed != 0 {
		t.Fatalf("full resume: executed=%d cached=%d failed=%d, want 0/%d/0",
			rep3.Executed, rep3.Cached, rep3.Failed, len(jobs))
	}

	// The merged output of the resumed run equals a from-scratch run: cache
	// recall is invisible in the report's renderings.
	fresh := renderJSON(t, runLocal(t, m, sweep.Options{Workers: 1, Exec: fakeExec}))
	if fresh != renderJSON(t, rep3) {
		t.Fatal("resumed merged output differs from a from-scratch run")
	}
}

// TestRealSimParallelDeterminism runs actual simulations on a small matrix
// and checks the parallel merged output is byte-identical to -jobs 1 —
// the sweep's core acceptance criterion, end to end.
func TestRealSimParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations; skipped with -short")
	}
	m := sweep.Matrix{
		Benches: []string{"streamcluster", "x264"},
		Kinds:   []string{"dir", "sp"},
		Seeds:   []int64{42},
		Scales:  []float64{0.05},
		Threads: 16,
	}
	jobs := m.Jobs()
	render := func(workers int, store *sweep.Store) (string, *sweep.Report) {
		rep := runLocal(t, m, sweep.Options{Store: store, Workers: workers}) // DefaultExec
		if rep.Failed != 0 {
			for _, jr := range rep.Jobs {
				if jr.Err != nil {
					t.Errorf("%s: %v", jr.Job.Key(), jr.Err)
				}
			}
			t.Fatalf("%d job(s) failed", rep.Failed)
		}
		return renderJSON(t, rep), rep
	}
	serial, _ := render(1, nil)
	par, _ := render(4, nil)
	if serial != par {
		t.Fatal("4-worker merged output differs from 1-worker output")
	}

	// End-to-end store pass: a run that checkpoints, then a resume that
	// recalls everything, still renders the identical bytes.
	store := openStore(t, t.TempDir())
	first, rep1 := render(2, store)
	if rep1.Executed != len(jobs) || rep1.Cached != 0 {
		t.Fatalf("first store pass: executed=%d cached=%d", rep1.Executed, rep1.Cached)
	}
	second, rep2 := render(3, store)
	if rep2.Executed != 0 || rep2.Cached != len(jobs) {
		t.Fatalf("resume pass recomputed: executed=%d cached=%d", rep2.Executed, rep2.Cached)
	}
	if first != serial || second != serial {
		t.Fatal("store-backed output differs from direct output")
	}
}

// TestZeroBackoffMeansNoGate: Backoff 0 retries a failed cell at once
// (the `-backoff` default), with no hidden floor on the wait.
func TestZeroBackoffMeansNoGate(t *testing.T) {
	attempts := 0
	exec := func(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) {
		attempts++
		if attempts == 1 {
			return nil, errors.New("transient")
		}
		return fakeResult(j), nil
	}
	start := time.Now()
	rep := runLocal(t, oneCell("alpha"), sweep.Options{Workers: 1, Retries: 1, Backoff: 0, Exec: exec})
	if jr := rep.Jobs[0]; jr.Err != nil || jr.Attempts != 2 {
		t.Fatalf("run: err=%v attempts=%d, want a success on attempt 2", jr.Err, jr.Attempts)
	}
	if elapsed := time.Since(start); elapsed >= 500*time.Millisecond {
		t.Fatalf("zero backoff waited: the run took %v", elapsed)
	}
}

// specCell is a one-cell matrix over a copy of the ocean profile spec at
// path, identified by the digest of the file as it is now.
func specCell(t *testing.T, path string) (sweep.Matrix, *scenario.Spec) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "workload", "specs", "03-ocean.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	m := sweep.Matrix{
		Specs:   []sweep.SpecRef{{Name: spec.Name, Path: path, Digest: spec.Digest()}},
		Kinds:   []string{"sp"},
		Seeds:   []int64{42},
		Scales:  []float64{0.05},
		Threads: 16,
	}
	return m, spec
}

// TestSpecCellRunsLikeDefaultExec: a scenario-spec cell runs through Run
// and its merged JSON equals DefaultExec's result on the same spec.
func TestSpecCellRunsLikeDefaultExec(t *testing.T) {
	m, spec := specCell(t, filepath.Join(t.TempDir(), "ocean.json"))
	rep := runLocal(t, m, sweep.Options{Workers: 1}) // DefaultExec
	if rep.Failed != 0 || rep.Executed != 1 {
		t.Fatalf("spec sweep: failed=%d executed=%d, want 0/1 (%v)", rep.Failed, rep.Executed, rep.Jobs[0].Err)
	}
	j := m.Jobs()[0]
	res, err := sweep.DefaultExec(j, spec)
	if err != nil {
		t.Fatal(err)
	}
	direct := &sweep.Report{Jobs: []sweep.JobResult{{Job: j, Result: res}}}
	if got, want := renderJSON(t, rep), renderJSON(t, direct); got != want {
		t.Fatalf("spec cell through Run differs from DefaultExec:\n%s\n---\n%s", got, want)
	}
}

// TestEditedSpecFailsTheCell: a spec file edited after the matrix was
// assembled no longer hashes to the cell's digest, so the cell fails
// without running the edited spec.
func TestEditedSpecFailsTheCell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ocean.json")
	m, _ := specCell(t, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(raw, []byte(`"iters": 26`), []byte(`"iters": 25`), 1)
	if bytes.Equal(edited, raw) {
		t.Fatal("spec edit did not apply")
	}
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	ran := false
	exec := func(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) {
		ran = true
		return fakeResult(j), nil
	}
	rep := runLocal(t, m, sweep.Options{Workers: 1, Exec: exec})
	if ran {
		t.Fatal("the edited spec was executed")
	}
	if err := rep.Jobs[0].Err; rep.Failed != 1 || err == nil ||
		!strings.Contains(err.Error(), "spec changed since the sweep was assembled") {
		t.Fatalf("edited spec: failed=%d err=%v", rep.Failed, err)
	}
}

// TestMissingSpecNamesTheFile: a spec file gone since the matrix was
// assembled fails its cell with an error naming the file.
func TestMissingSpecNamesTheFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ocean.json")
	m, _ := specCell(t, path)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	rep := runLocal(t, m, sweep.Options{Workers: 1, Exec: fakeExec})
	if err := rep.Jobs[0].Err; rep.Failed != 1 || err == nil ||
		!strings.Contains(err.Error(), "spec unavailable: ") || !strings.Contains(err.Error(), path) {
		t.Fatalf("missing spec: failed=%d err=%v, want \"spec unavailable\" naming %s", rep.Failed, err, path)
	}
}

// TestRunMatchesReportGolden: Run's merged output in every format equals
// the pinned report golden (testdata/report_golden.*), failed cell
// included, for more than one worker count.
func TestRunMatchesReportGolden(t *testing.T) {
	m := sweep.Matrix{
		Benches: []string{"x264", "streamcluster"},
		Kinds:   []string{"dir", "sp"},
		Seeds:   []int64{42, 7},
		Scales:  []float64{0.25},
		Threads: 16,
	}
	exec := func(j sweep.Job, _ *scenario.Spec) (*sim.Result, error) {
		if j.Key() == "x264/sp/t16/x0.25/s7" {
			return nil, errors.New("injected failure")
		}
		return fakeResult(j), nil
	}
	for _, workers := range []int{1, 3} {
		rep := runLocal(t, m, sweep.Options{Workers: workers, Exec: exec})
		var table, csv bytes.Buffer
		rep.FormatTable(&table)
		if err := rep.FormatCSV(&csv); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			file string
			got  []byte
		}{
			{"report_golden.txt", table.Bytes()},
			{"report_golden.csv", csv.Bytes()},
			{"report_golden.json", []byte(renderJSON(t, rep))},
		} {
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(c.got, want) {
				t.Fatalf("workers=%d: %s differs from the golden\n got:\n%s\nwant:\n%s", workers, c.file, c.got, want)
			}
		}
	}
}
