package sweep

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"spcoh/internal/experiments"
	"spcoh/internal/scenario"
	"spcoh/internal/sim"
)

// ExecFunc executes one cell. spec is non-nil exactly for scenario-spec
// cells, already verified against Job.SpecDigest.
type ExecFunc func(j Job, spec *scenario.Spec) (*sim.Result, error)

// DefaultExec runs the cell through internal/experiments, which builds a
// private Runner per cell, so cells share nothing.
func DefaultExec(j Job, spec *scenario.Spec) (*sim.Result, error) {
	if j.SpecDigest == "" {
		return experiments.RunCell(j.RunConfig, j.Bench, j.Kind)
	}
	if spec == nil {
		return nil, fmt.Errorf("sweep: job %s needs spec %.12s but none was provided", j.Key(), j.SpecDigest)
	}
	return experiments.RunSpecCell(j.RunConfig, spec, j.Kind)
}

// Options configures Run.
type Options struct {
	// Store checkpoints every completed cell and recalls those a previous
	// run finished (required).
	Store *Store
	// Workers is the number of cells run at once; <= 0 means
	// runtime.NumCPU().
	Workers int
	// Retries is the number of additional attempts after a cell's first
	// failed one.
	Retries int
	// Backoff is the base wait before a retry, jittered per RetryDelay;
	// 0 means none. BackoffSeed seeds the jitter.
	Backoff     time.Duration
	BackoffSeed int64
	// Timeout bounds one attempt's wall time; 0 means none.
	Timeout time.Duration
	// Exec executes cells; nil means DefaultExec. Tests inject stubs.
	Exec ExecFunc
}

// Run executes one matrix and returns its merged report: the local
// `spsweep run` and `resume`. Cells already in the store come back cached
// and are reported to progress first; the rest run on opt.Workers
// goroutines, each cell for up to 1+opt.Retries attempts. A success is
// checkpointed and recalled from the store; a cell whose last attempt
// fails lands in the store's failure ledger. The report is in key order
// and every result in it is a store recall, so its renderings are
// byte-identical for any worker count or resume state.
//
// progress, when non-nil, sees each cell's outcome once, on the calling
// goroutine, in completion order (display only). A cancelled ctx ends the run without a
// report and returns ctx's error: attempts cut by the cancel report
// nothing, so they stay out of the failure ledger and remain pending for
// a resume.
func Run(ctx context.Context, m Matrix, opt Options, progress func(JobResult)) (*Report, error) {
	start := time.Now()
	if opt.Store == nil {
		return nil, errors.New("sweep: Options.Store is required")
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.NumCPU()
	}
	if opt.Exec == nil {
		opt.Exec = DefaultExec
	}

	jobs := m.Jobs()
	results := make([]JobResult, len(jobs))
	finish := func(i int, jr JobResult) {
		results[i] = jr
		if progress != nil {
			progress(jr)
		}
	}
	var pending []int
	for i, j := range jobs {
		if res, ok := opt.Store.Lookup(j); ok {
			finish(i, JobResult{Job: j, Result: res, Cached: true})
		} else {
			pending = append(pending, i)
		}
	}

	// Workers take cells from next and hand outcomes back on done, so
	// results and progress are touched by this goroutine alone.
	type outcome struct {
		i  int
		jr JobResult
	}
	next := make(chan int)
	done := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if jr, ok := runCell(ctx, opt, jobs[i]); ok {
					done <- outcome{i, jr}
				}
			}
		}()
	}
	go func() {
	feed:
		for _, i := range pending {
			select {
			case next <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
		close(done)
	}()
	for o := range done {
		finish(o.i, o.jr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{Jobs: results, Wall: time.Since(start)}
	for _, jr := range results {
		switch {
		case jr.Err != nil:
			rep.Failed++
		case jr.Cached:
			rep.Cached++
		default:
			rep.Executed++
		}
	}
	return rep, nil
}

// runCell runs one cell's attempts. ok is false when ctx was cancelled
// before the cell reached an outcome: cancelled is not failed, so nothing
// is recorded.
func runCell(ctx context.Context, opt Options, j Job) (JobResult, bool) {
	key := j.Key()
	jr := JobResult{Job: j}
	var msg string
	for k := 1; k <= 1+opt.Retries; k++ {
		if sleepCtx(ctx, RetryDelay(key, k, opt.Backoff, opt.BackoffSeed)) != nil {
			return jr, false
		}
		start := time.Now()
		res, err := runAttempt(ctx, opt.Timeout, func() (*sim.Result, error) {
			spec, err := loadSpec(j)
			if err != nil {
				return nil, err
			}
			return opt.Exec(j, spec)
		})
		if ctxErr := ctx.Err(); err != nil && ctxErr != nil && errors.Is(err, ctxErr) {
			return jr, false
		}
		if err == nil {
			res, err = checkpoint(opt.Store, j, res)
		}
		jr.Attempts, jr.Wall = k, time.Since(start)
		if err == nil {
			jr.Result = res
			return jr, true
		}
		msg = err.Error()
	}
	_ = opt.Store.MarkFailed(j, msg)
	jr.Err = fmt.Errorf("sweep: %s: %s", key, msg)
	return jr, true
}

// checkpoint stores a finished attempt's result and returns it as
// recalled from the store, so the report carries exactly the bytes a
// resumed run reads back.
func checkpoint(store *Store, j Job, res *sim.Result) (*sim.Result, error) {
	if res == nil {
		return nil, errors.New("attempt returned no result")
	}
	if err := store.Put(j, res); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	got, ok := store.Lookup(j)
	if !ok {
		return nil, errors.New("store: artifact unreadable right after it was written")
	}
	return got, nil
}

// loadSpec re-reads a scenario-spec cell's file and verifies it against
// the digest in the cell's identity, so an edited spec fails the cell
// instead of running under the old cell's key. Built-in cells have none.
func loadSpec(j Job) (*scenario.Spec, error) {
	if j.SpecDigest == "" {
		return nil, nil
	}
	b, err := os.ReadFile(j.SpecPath)
	if err != nil {
		return nil, fmt.Errorf("spec unavailable: %v", err)
	}
	sp, err := scenario.Parse(b)
	if err != nil {
		return nil, fmt.Errorf("bad spec payload: %v", err)
	}
	if d := sp.Digest(); d != j.SpecDigest {
		return nil, fmt.Errorf("spec changed since the sweep was assembled: content hashes to %.12s, job wants %.12s", d, j.SpecDigest)
	}
	return sp, nil
}

// runAttempt runs one attempt with panic recovery and an optional
// wall-clock timeout: a panic becomes an error, and a timed-out or
// cancelled attempt returns at once while its goroutine runs on to
// completion in the background (a simulation is not preemptible).
func runAttempt(ctx context.Context, timeout time.Duration, run func() (*sim.Result, error)) (*sim.Result, error) {
	type outcome struct {
		res *sim.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: fmt.Errorf("panic: %v", p)}
			}
		}()
		res, err := run()
		ch <- outcome{res: res, err: err}
	}()
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case o := <-ch:
		return o.res, o.err
	case <-expired:
		return nil, fmt.Errorf("timed out after %s", timeout)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// RetryDelay returns the wait before attempt k of the cell with the given
// key: base << (k-2), scaled by a jitter factor in [0.5, 1.5) drawn from
// a rand seeded by (seed, key, k). Attempt 1 and base <= 0 wait nothing.
//
// The function is pure — the same sweep retries on the same schedule every
// run, which keeps tests deterministic — and it never touches the global
// math/rand source (spvet's wallclock check bans that in sim packages; the
// orchestrator holds itself to the same rule).
func RetryDelay(key string, attempt int, base time.Duration, seed int64) time.Duration {
	if base <= 0 || attempt <= 1 {
		return 0
	}
	exp := attempt - 2
	if exp > 16 {
		exp = 16 // cap the exponential; 65536x base is already absurd
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64()) ^ int64(attempt)<<32))
	jitter := 0.5 + rng.Float64() // [0.5, 1.5)
	return time.Duration(float64(base<<exp) * jitter)
}

// sleepCtx waits d (0 returns at once unless ctx is already cancelled);
// it errors only when ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
