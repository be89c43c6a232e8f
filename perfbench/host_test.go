package main

import (
	"runtime"
	"testing"
	"time"
)

// TestCPUClocksCountWork checks that both CPU clocks advance by about the
// time a busy loop spins, and that a sleep adds almost nothing.
func TestCPUClocksCountWork(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	w := startWatch()
	t0 := threadCPU()
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
	}
	spun := threadCPU() - t0
	_, proc := w.elapsed()
	if spun < 10*time.Millisecond || proc < spun {
		t.Fatalf("50 ms of spinning: thread CPU %v, process CPU %v", spun, proc)
	}

	t0 = threadCPU()
	time.Sleep(50 * time.Millisecond)
	if slept := threadCPU() - t0; slept > 10*time.Millisecond {
		t.Fatalf("50 ms of sleep used %v of thread CPU", slept)
	}
}

// TestPeakRSSPerPass checks that the peak resident set starts again from
// the current one after a reset and grows with memory the process touches.
func TestPeakRSSPerPass(t *testing.T) {
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	before, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 64<<20)
	for i := range b {
		if i%4096 == 0 {
			b[i] = 1
		}
	}
	after, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if after-before < 48 {
		t.Fatalf("touching 64 MB moved the peak from %.1f to %.1f MB", before, after)
	}
	runtime.KeepAlive(b)
}
