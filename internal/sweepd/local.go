package sweepd

import (
	"context"
	"runtime"
	"sync"
	"time"

	"spcoh/internal/sweep"
)

// RunLocal executes one matrix in-process and returns its merged report:
// the local `spsweep run`. It drives a private Server over opt.Store with
// no HTTP listener — the same lease queue, RunWorker loop (with
// opt.LocalWorkers slots, <= 0 meaning runtime.NumCPU()), requeue-based
// retries and report assembly as the daemon — so a local run and a server
// run of the same matrix merge to the same bytes. Only m's cells are
// scheduled: sweeps registered in the store by a daemon are not adopted.
// Cells already in the store come back cached.
//
// progress, when non-nil, sees each job's terminal status once, cached
// cells first and then in completion order (display only). A cancelled
// ctx ends the run without a report and returns ctx's error: attempts cut
// by the cancel report nothing, so they stay out of the store's failure
// ledger and remain pending for a resume.
func RunLocal(ctx context.Context, m sweep.Matrix, opt Options, progress func(JobStatus)) (*sweep.Report, error) {
	start := time.Now()
	if opt.LocalWorkers <= 0 {
		opt.LocalWorkers = runtime.NumCPU()
	}
	s, err := newServer(opt)
	if err != nil {
		return nil, err
	}
	ss := s.adopt(m)

	var followErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		followErr = s.follow(ctx, ss.keys, func(events []JobStatus) error {
			if progress != nil {
				for _, js := range events {
					progress(js)
				}
			}
			return nil
		})
	}()
	RunWorker(ctx, s, s.localWorker(true))
	wg.Wait()
	if followErr != nil {
		return nil, followErr
	}
	rep, err := s.report(ss)
	if err != nil {
		return nil, err
	}
	rep.Wall = time.Since(start)
	return rep, nil
}
