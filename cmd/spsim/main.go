// Command spsim runs benchmarks under one coherence configuration and
// prints the measurements.
//
// Usage:
//
//	spsim -bench ocean -pred sp [-scale 0.2] [-seed 42] [-threads 16]
//	spsim -all -pred bcast
//	spsim -spec scenario.json -pred sp
//	spscen gen -seed 7 | spsim -spec - -pred sp
//	spsim -bench ocean -pred sp -metrics-epoch 10000 -metrics-out series.json
//
// -pred takes any configuration name of experiments.Kinds() (see -h):
// dir, the baseline directory, by default; bcast for broadcast snooping.
// An unknown name or an unsupported -threads exits 2 before anything runs.
//
// With -spec the workload comes from a declarative scenario file
// (internal/scenario; "-" reads stdin) instead of a built-in profile.
//
// With -metrics-epoch N the run attaches the run-time metrics collector
// (internal/metrics) sampling every N cycles and writes the deterministic
// JSON time-series to -metrics-out (render it with spstat). Incompatible
// with -all: one series file describes one run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"spcoh/internal/experiments"
	"spcoh/internal/metrics"
	"spcoh/internal/scenario"
	"spcoh/internal/sim"
	"spcoh/internal/stats"
	"spcoh/internal/workload"
)

// loadSpec reads a scenario spec from a file or, for "-", from stdin.
func loadSpec(path string) (*scenario.Spec, error) {
	if path != "-" {
		return scenario.Load(path)
	}
	b, err := io.ReadAll(os.Stdin)
	if err != nil {
		return nil, fmt.Errorf("scenario: read stdin: %w", err)
	}
	return scenario.Parse(b)
}

// writeSeries atomically-ish writes the series (truncate-then-write is fine
// for a CLI output file).
func writeSeries(path string, s *metrics.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	bench := flag.String("bench", "ocean", "benchmark name")
	all := flag.Bool("all", false, "run every benchmark")
	specPath := flag.String("spec", "", `scenario spec file instead of a built-in benchmark ("-" = stdin)`)
	pred := flag.String("pred", "dir", "configuration: "+strings.Join(experiments.Kinds(), "|"))
	scale := flag.Float64("scale", 0.2, "workload scale factor")
	seed := flag.Int64("seed", 42, "workload build seed")
	threads := flag.Int("threads", 16, "thread/node count (a perfect-square mesh up to 8x8: 4, 9, 16, ..., 64)")
	metricsEpoch := flag.Uint64("metrics-epoch", 0, "metrics sampling epoch in cycles (0 = no metrics)")
	metricsOut := flag.String("metrics-out", "", "write the metrics time-series JSON here (requires -metrics-epoch)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here")
	memprofile := flag.String("memprofile", "", "write an allocation profile here on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "spsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "spsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "spsim:", err)
			}
		}()
	}

	if *metricsOut != "" && *metricsEpoch == 0 {
		fmt.Fprintln(os.Stderr, "spsim: -metrics-out requires -metrics-epoch")
		os.Exit(2)
	}
	if *metricsEpoch > 0 && *all {
		fmt.Fprintln(os.Stderr, "spsim: -metrics-epoch is incompatible with -all (one series per run)")
		os.Exit(2)
	}

	cfg := experiments.Config{Threads: *threads, Scale: *scale, Seed: *seed, MetricsEpoch: *metricsEpoch}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "spsim:", err)
		os.Exit(2)
	}
	if err := experiments.CheckKind(*pred); err != nil {
		fmt.Fprintln(os.Stderr, "spsim:", err)
		os.Exit(2)
	}

	var spec *scenario.Spec
	if *specPath != "" {
		if *all {
			fmt.Fprintln(os.Stderr, "spsim: -spec is incompatible with -all")
			os.Exit(2)
		}
		var err error
		if spec, err = loadSpec(*specPath); err != nil {
			fmt.Fprintln(os.Stderr, "spsim:", err)
			os.Exit(1)
		}
	}

	names := []string{*bench}
	if *all {
		names = workload.Names()
	}
	if spec != nil {
		names = []string{spec.Name}
	}

	tb := stats.NewTable("spsim: "+*pred,
		"benchmark", "cycles", "misses", "comm%", "missLat", "commLat", "nonCommLat",
		"acc%", "predTgt", "actTgt", "netKB", "energy")
	// With -all, a bad benchmark is recorded and the rest still run; the
	// failures are reported together at the end. A single-benchmark run
	// keeps fail-fast behaviour.
	var failures []string
	fail := func(name string, err error) {
		if !*all {
			fmt.Fprintln(os.Stderr, "spsim:", err)
			os.Exit(1)
		}
		failures = append(failures, fmt.Sprintf("%s: %v", name, err))
	}
	for _, name := range names {
		var res *sim.Result
		var err error
		if spec != nil {
			res, err = experiments.RunSpecCell(cfg, spec, *pred)
		} else {
			res, err = experiments.RunCell(cfg, name, *pred)
		}
		if err != nil {
			fail(name, err)
			continue
		}
		if res.Metrics != nil && *metricsOut != "" {
			if err := writeSeries(*metricsOut, res.Metrics); err != nil {
				fmt.Fprintln(os.Stderr, "spsim:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "spsim: metrics series (%d epochs) written to %s\n",
				len(res.Metrics.Epochs), *metricsOut)
		}
		row(tb, name, res)
	}
	tb.Render(os.Stdout)
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "spsim: %d/%d benchmarks failed:\n", len(failures), len(names))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
}

func row(tb *stats.Table, name string, r *sim.Result) {
	n := r.Nodes
	var commLat, nonCommLat, acc, predTgt, actTgt float64
	if r.Protocol == sim.Directory {
		commLat, nonCommLat = n.AvgCommLatency(), n.AvgNonCommLatency()
		acc = 100 * n.Accuracy()
		predTgt, actTgt = n.AvgPredictedSet(), n.AvgActualSet()
	}
	tb.AddRowf(name, uint64(r.Cycles), r.Misses(), 100*r.CommRatio(),
		r.AvgMissLatency(), commLat, nonCommLat, acc, predTgt, actTgt,
		r.Net.Bytes/1024, r.Energy.Total())
}
