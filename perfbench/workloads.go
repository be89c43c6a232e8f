package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"spcoh/internal/core"
	"spcoh/internal/event"
	"spcoh/internal/experiments"
	"spcoh/internal/protocol"
	"spcoh/internal/sim"
	"spcoh/internal/workload"
)

// benchWorkload is one named workload: the programs it builds and one
// pass over them. A pass builds its programs from the seed, so every pass
// (and every cell in it) starts from cold modelled caches.
type benchWorkload struct {
	name     string
	programs []programSpec
	pass     func(seed int64, tr *Trace) passOut
}

// programSpec is one program a workload builds: a profile at a size.
type programSpec struct {
	profile string
	threads int
	scale   float64
}

// build builds programs from the seed, recording a span around each call
// into workload.Profile.Program, and returns them with the CPU time the
// calls took on the calling thread: the workload's set-up. The caller is
// locked to its thread.
func build(specs []programSpec, seed int64, tr *Trace, parent int32) ([]*workload.Program, time.Duration, error) {
	progs := make([]*workload.Program, len(specs))
	var setup time.Duration
	for i, s := range specs {
		p, err := workload.ByName(s.profile)
		if err != nil {
			return nil, setup, err
		}
		id := tr.Begin(spanProgram, parent)
		t0 := threadCPU()
		progs[i], err = p.Program(s.threads, s.scale, seed)
		setup += threadCPU() - t0
		tr.End(id)
		if err != nil {
			return nil, setup, fmt.Errorf("%s: %w", s.profile, err)
		}
	}
	return progs, setup, nil
}

// cellOut is one simulation cell of a pass.
type cellOut struct {
	name   string // "<profile>/<kind>"
	res    *sim.Result
	digest string // of the cell's simulated statistics
	// cpu is the CPU time of the thread that simulated the cell, over
	// the call; timed cells feed sim_cycles_per_cpu_s and
	// event.ns_per_event.
	cpu   time.Duration
	timed bool
	err   error
}

// passOut is what one pass measured and produced.
type passOut struct {
	wall  time.Duration
	cpu   time.Duration // process CPU time over the same span as wall
	setup time.Duration // CPU time in workload.Profile.Program
	ops   int           // ops built
	cells []cellOut

	// figures only.
	tables      []byte // the rendered tables
	tablesErr   error
	traceEvents uint64 // events the characterization trace runs collected

	// Runtime counters over the pass, filled in by runPass.
	allocBytes uint64
	gcCycles   uint32
	peakRSSMB  float64 // the process's peak resident set during the pass
}

// workloads lists every workload in the order BENCHMARK.json names them.
var workloads = []benchWorkload{
	simWorkload("mesh4-sp", 16, "sp", 10_000_000, []simCell{{"ocean", 1.0}, {"fluidanimate", 1.0}, {"radiosity", 1.0}}),
	simWorkload("mesh4-bcast", 16, "bcast", 10_000_000, []simCell{{"streamcluster", 1.0}, {"ocean", 1.0}}),
	figuresWorkload(),
}

func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// simCell is one profile of a simulation workload at its scale.
type simCell struct {
	profile string
	scale   float64
}

// simWorkload runs its cells one after another through sim.Run on the
// default serial detailed engine. kind is "dir", "sp" or "bcast".
// maxCycles is each cell's simulated-cycle budget: a cell that needs more
// fails. It is checked on the result instead of through
// sim.Options.MaxCycles, which swaps the engine's run loop for a slower
// peek loop that no command uses.
func simWorkload(name string, nodes int, kind string, maxCycles event.Time, cells []simCell) benchWorkload {
	w := benchWorkload{name: name}
	for _, c := range cells {
		w.programs = append(w.programs, programSpec{c.profile, nodes, c.scale})
	}
	w.pass = func(seed int64, tr *Trace) passOut {
		var out passOut
		watch := startWatch()
		root := tr.Begin(spanPass, noSpan)
		progs, setup, buildErr := build(w.programs, seed, tr, root)
		out.setup = setup
		out.cells = make([]cellOut, len(cells))
		for i, c := range cells {
			out.cells[i].name = c.profile + "/" + kind
			if buildErr != nil {
				out.cells[i].err = buildErr
				continue
			}
			out.ops += progs[i].TotalOps()
			opt, err := simOptions(nodes, kind)
			if err != nil {
				out.cells[i].err = err
				continue
			}
			id := tr.Begin(spanSimRun, root)
			if tr != nil && opt.Predictors != nil {
				opt.Predictors = wrapPredictors(opt.Predictors, tr, id)
			}
			t0 := threadCPU()
			res, err := safeRun(progs[i], opt)
			out.cells[i].cpu = threadCPU() - t0
			tr.End(id)
			out.cells[i].timed = true
			out.cells[i].setResult(res, err, maxCycles)
		}
		tr.End(root)
		out.wall, out.cpu = watch.elapsed()
		return out
	}
	return w
}

// simOptions is the machine of a simulation workload: the mesh with as
// many tiles as nodes, the protocol, and a fresh predictor per node.
func simOptions(nodes int, kind string) (sim.Options, error) {
	opt := sim.DefaultOptions()
	m, err := protocol.ConfigFor(nodes)
	if err != nil {
		return opt, err
	}
	opt.Machine = m
	switch kind {
	case "dir":
	case "sp":
		opt.Predictors = core.NewSystem(core.DefaultConfig(nodes))
	case "bcast":
		opt.Protocol = sim.Broadcast
	default:
		return opt, fmt.Errorf("unknown cell kind %q", kind)
	}
	return opt, nil
}

// safeRun is sim.Run with a panic turned into the cell's error.
func safeRun(prog *workload.Program, opt sim.Options) (res *sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return sim.Run(prog, opt)
}

// setResult records a cell's outcome: an error from the run, or a result
// over its cycle budget, fails the cell.
func (c *cellOut) setResult(res *sim.Result, err error, maxCycles event.Time) {
	switch {
	case err != nil:
		c.err = err
	case res.Cycles > maxCycles:
		c.err = fmt.Errorf("%d simulated cycles exceed the cell budget of %d", res.Cycles, maxCycles)
	default:
		c.res = res
		c.digest = digestOf(res)
	}
}

// digestOf hashes every simulated statistic of a result.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Figures workload settings: the paper's 16-tile machine, the scale the
// figures are regenerated at, the worker count (the host's two cores), the
// run-time metrics sampling epoch in cycles, and the cycle budget of one
// cell.
const (
	figuresThreads   = 16
	figuresScale     = 0.1
	figuresWorkers   = 2
	figuresEpoch     = 10_000
	figuresMaxCycles = 2_000_000
)

// figureIDs are the experiments the figures workload regenerates.
var figureIDs = []string{"table1", "fig1", "fig4", "fig5", "fig6", "fig7", "table5"}

// figureKinds are the Runner configurations those experiments read for
// every profile, besides its characterization trace: fig1 reads "dir",
// fig7 and table5 read "sp" and "oracle".
var figureKinds = []string{"dir", "sp", "oracle"}

// figuresWorkload regenerates the characterization tables and the
// prediction-accuracy figures for every profile through
// experiments.Runner, as spbench does, with the metrics collector on.
func figuresWorkload() benchWorkload {
	w := benchWorkload{name: "figures"}
	names := workload.Names()
	for _, name := range names {
		w.programs = append(w.programs, programSpec{name, figuresThreads, figuresScale})
	}
	w.pass = func(seed int64, tr *Trace) passOut {
		cfg := experiments.Config{Threads: figuresThreads, Scale: figuresScale, Seed: seed, MetricsEpoch: figuresEpoch}
		var out passOut
		// Set-up is timed on its own: the Runner builds the same programs
		// again inside the pass, so the pass's times include it.
		progs, setup, err := build(w.programs, seed, tr, noSpan)
		out.setup = setup
		if err != nil {
			out.cells = []cellOut{{name: "programs", err: err}}
			return out
		}
		for _, p := range progs {
			out.ops += p.TotalOps()
		}

		watch := startWatch()
		root := tr.Begin(spanPass, noSpan)
		r := experiments.NewRunner(cfg)
		per := 1 + len(figureKinds)
		out.cells = make([]cellOut, per*len(names))
		events := make([]uint64, len(names))
		next := make(chan int)
		var wg sync.WaitGroup
		for range figuresWorkers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runtime.LockOSThread() // for threadCPU
				defer runtime.UnlockOSThread()
				for i := range next {
					events[i] = runFiguresProfile(r, names[i], out.cells[i*per:(i+1)*per], tr, root)
				}
			}()
		}
		for i := range names {
			next <- i
		}
		close(next)
		wg.Wait()
		for _, n := range events {
			out.traceEvents += n
		}

		id := tr.Begin(spanTables, root)
		var buf bytes.Buffer
		for _, eid := range figureIDs {
			e, err := experiments.ByID(eid)
			if err != nil {
				out.tablesErr = err
				break
			}
			tab, err := e.Run(r)
			if err != nil {
				out.tablesErr = fmt.Errorf("%s: %w", eid, err)
				break
			}
			tab.Render(&buf)
		}
		out.tables = buf.Bytes()
		tr.End(id)
		tr.End(root)
		out.wall, out.cpu = watch.elapsed()
		return out
	}
	return w
}

// runFiguresProfile fills one profile's cells: its characterization trace
// run first, which builds the program, then each configuration, so the
// timed "dir" and "sp" runs hold no build. It returns the number of trace
// events the characterization collected.
func runFiguresProfile(r *experiments.Runner, name string, cells []cellOut, tr *Trace, root int32) uint64 {
	var events uint64
	id := tr.Begin(spanRunnerAnalysis, root)
	a, err := r.Analysis(name)
	tr.End(id)
	cells[0].name = name + "/analysis"
	if err != nil {
		cells[0].err = err
	} else {
		// Every sync point opens an epoch and every miss is counted: the
		// two make up the collected trace.
		events = a.TotalMisses + uint64(len(a.Epochs))
		cells[0].digest = digestOf([]uint64{a.TotalMisses, a.CommMisses, uint64(len(a.Epochs))})
	}
	for k, kind := range figureKinds {
		c := &cells[1+k]
		c.name = name + "/" + kind
		c.timed = kind != "oracle" // an oracle run holds its profiling run too
		id := tr.Begin(spanRunnerRun, root)
		t0 := threadCPU()
		res, err := r.Run(name, kind)
		c.cpu = threadCPU() - t0
		tr.End(id)
		c.setResult(res, err, figuresMaxCycles)
	}
	return events
}
