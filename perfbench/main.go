// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time and prints, as its last line, one JSON object with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1). See
// README.md in this directory; run.sh builds and runs it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// giveUpAfter bounds a run whatever -seconds says: a simulation that never
// ends is a failure, reported by exiting without a result.
const giveUpAfter = 170 * time.Second

// minPasses is the fewest timed untraced passes a run makes, however
// short -seconds is, so that every cell is checked against repeats.
const minPasses = 3

// setupReps is how many times an untraced run times its workload's set-up
// on its own before the passes. setup_s is the median of these and of the
// set-up inside every pass: set-up is short, so it needs more samples than
// the passes give.
const setupReps = 10

// maxWrittenPredictorSpans caps the predictor spans written to the trace
// file; the metrics use all of them.
const maxWrittenPredictorSpans = 20_000

func main() {
	name := flag.String("workload", "", "workload to run: mesh4-sp, mesh4-bcast or figures")
	seed := flag.Int64("seed", 42, "workload build seed")
	seconds := flag.Int("seconds", 10, "how long to keep starting passes")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from traced and untraced passes")
	out := flag.String("out", ".bench_build/perfbench-traces", "directory the trace file of -trace 1 is written to")
	flag.Parse()

	// The main goroutine builds programs and simulates cells; holding it
	// to one thread lets threadCPU time them.
	runtime.LockOSThread()
	time.AfterFunc(giveUpAfter, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v, giving up\n", giveUpAfter)
		os.Exit(2)
	})
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, dur time.Duration, trace int, outDir string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", trace)
	}
	prov, err := newProvenance(w, seed, trace)
	if err != nil {
		return err
	}
	provLine, err := json.Marshal(map[string]provenance{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", provLine)

	deadline := time.Now().Add(dur)
	var res result
	if trace == 0 {
		var setups []time.Duration
		for range setupReps {
			runtime.GC()
			// A failing build is reported by the passes, which build too.
			if _, d, err := build(w.programs, seed, nil, noSpan); err == nil {
				setups = append(setups, d)
			}
		}
		// The warm-up pass grows the heap and faults in the code; its
		// outputs are checked, its times left out.
		warm, err := runPass(w, seed, nil)
		if err != nil {
			return err
		}
		logPass(-1, "warm-up", warm)
		var passes []passOut
		for len(passes) < minPasses || fits(medianWall(passes), deadline) {
			p, err := runPass(w, seed, nil)
			if err != nil {
				return err
			}
			logPass(len(passes), "untraced", p)
			passes = append(passes, p)
		}
		metrics := withUnits(endToEndMetrics, endToEnd(passes, setups))
		res = finish(append([]passOut{warm}, passes...), metrics)
	} else if res, err = runTraced(w, seed, deadline, prov, outDir); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// finish checks the passes' outputs and attaches the metrics.
func finish(passes []passOut, metrics map[string]metricValue) result {
	attempted, failed, problems := verify(passes)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
}

// runTraced alternates untraced and traced passes until the deadline,
// taking a CPU profile of each traced pass, and writes the last traced
// pass's spans to outDir.
func runTraced(w benchWorkload, seed int64, deadline time.Time, prov provenance, outDir string) (result, error) {
	var untraced, traced []passOut
	var totalsByPass []spanTotals
	samples := layerSamples{}
	var last *Trace
	for len(traced) < 2 || fits(medianWall(untraced)+medianWall(traced), deadline) {
		p, err := runPass(w, seed, nil)
		if err != nil {
			return result{}, err
		}
		logPass(len(untraced), "untraced", p)
		untraced = append(untraced, p)

		tr := newTrace()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, fmt.Errorf("cpu profile: %w", err)
		}
		p, err = runPass(w, seed, tr)
		pprof.StopCPUProfile()
		if err != nil {
			return result{}, err
		}
		logPass(len(traced), "traced", p)
		traced = append(traced, p)
		if err := samples.addProfile(prof.Bytes()); err != nil {
			return result{}, err
		}
		totalsByPass = append(totalsByPass, totals(tr.spans))
		last = tr
	}
	v := perLayer(untraced, traced, totalsByPass, samples)
	if err := writeTrace(outDir, prov, last, samples, v); err != nil {
		return result{}, err
	}
	return finish(append(untraced, traced...), withUnits(perLayerMetrics, v)), nil
}

// fits reports whether work that takes d, started now, ends before the
// deadline. A run starts no pass that would overrun it, so it lasts about
// as long as asked.
func fits(d time.Duration, deadline time.Time) bool { return time.Now().Add(d).Before(deadline) }

// medianWall is the median wall time of the passes.
func medianWall(passes []passOut) time.Duration {
	return time.Duration(medianOf(passes, func(p passOut) float64 { return float64(p.wall) }))
}

// runPass runs one pass from a collected heap and records the runtime's
// allocation and collection counts and the peak resident set over it.
func runPass(w benchWorkload, seed int64, tr *Trace) (passOut, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := resetPeakRSS(); err != nil {
		return passOut{}, err
	}
	p := w.pass(seed, tr)
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = after.NumGC - before.NumGC
	var err error
	p.peakRSSMB, err = peakRSSMB()
	return p, err
}

func logPass(i int, kind string, p passOut) {
	s := sumCells(p.cells)
	fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: wall %.3fs cpu %.3fs setup %.3fs %.0f cycles/cpu-s\n",
		kind, i, p.wall.Seconds(), p.cpu.Seconds(), p.setup.Seconds(), s.cyclesPerCPUSecond())
}

// traceFile is what a traced run writes: its provenance, metrics, CPU
// samples by layer and the spans of its last traced pass.
type traceFile struct {
	Provenance       provenance         `json:"provenance"`
	Metrics          map[string]float64 `json:"metrics"`
	CPUSamples       layerSamples       `json:"cpu_samples"`
	Spans            []spanRecord       `json:"spans"`
	DroppedPredictor int                `json:"dropped_predictor_spans"`
}

type spanRecord struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func writeTrace(dir string, prov provenance, tr *Trace, samples layerSamples, v map[string]float64) error {
	f := traceFile{Provenance: prov, Metrics: v, CPUSamples: samples}
	kept := 0
	for i, s := range tr.spans {
		if s.Kind.isPredictor() {
			if kept == maxWrittenPredictorSpans {
				f.DroppedPredictor++
				continue
			}
			kept++
		}
		f.Spans = append(f.Spans, spanRecord{int32(i), s.Parent, s.Kind.String(), s.Start, s.End})
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", prov.Workload, prov.Seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: wrote", path)
	return nil
}
