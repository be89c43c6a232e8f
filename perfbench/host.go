package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Host measurements, read from Linux: CPU clocks and the peak resident set.
//
// Host time is measured as CPU time, not wall time. On a shared virtual
// machine the hypervisor takes the vCPUs away for seconds at a time
// ("steal" in /proc/stat); the guest kernel leaves that out of a task's
// CPU time but not out of the wall clock, so CPU time moves with the
// simulator and far less with the neighbours' load.

// Clock ids of clock_gettime(2).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time every thread of the process has used,
// the collector's included.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time the calling thread has used. It measures a
// goroutine only while runtime.LockOSThread holds the goroutine to it.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// stopwatch reads the wall clock and the process's CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

// elapsed is the wall and process CPU time since the watch started.
func (s stopwatch) elapsed() (wall, cpu time.Duration) {
	return time.Since(s.wall), processCPU() - s.cpu
}

// resetPeakRSS sets the process's peak resident set to its current
// resident set (Linux 4.0 and later), so that each pass has a peak of its
// own and the metric does not grow with the number of passes a run makes.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set since the last reset.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
