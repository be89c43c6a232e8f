// Package sim assembles the full CMP: cores executing a workload program
// over either the prediction-capable directory protocol or the broadcast
// snooping protocol, and collects the measurements the paper's evaluation
// reports.
package sim

import (
	"fmt"

	"spcoh/internal/arch"
	"spcoh/internal/cpu"
	"spcoh/internal/energy"
	"spcoh/internal/event"
	"spcoh/internal/metrics"
	"spcoh/internal/noc"
	"spcoh/internal/predictor"
	"spcoh/internal/protocol"
	"spcoh/internal/snoop"
	"spcoh/internal/workload"
)

// ProtocolKind selects the coherence substrate.
type ProtocolKind int

const (
	// Directory is the baseline MESIF directory protocol, optionally
	// extended with destination-set prediction.
	Directory ProtocolKind = iota
	// Broadcast is the snooping comparison protocol.
	Broadcast
)

// Options configures one simulation run.
type Options struct {
	Machine  protocol.Config
	Protocol ProtocolKind

	// Predictors, one per node (directory protocol only). Nil or empty =
	// baseline.
	Predictors []predictor.Predictor

	IssueWidth int

	// Tracer, when set, observes every L2 miss outcome and sync-point
	// (directory protocol only). Used by the characterization pipeline.
	Tracer Tracer

	// Energy model parameters; zero value uses defaults.
	Energy energy.Params

	// MetricsEpoch, when non-zero, attaches the run-time metrics collector
	// sampling the whole system every MetricsEpoch cycles; the resulting
	// time-series lands in Result.Metrics. Zero (the default) collects
	// nothing and adds no instrumentation beyond nil checks.
	MetricsEpoch event.Time
}

// DefaultOptions returns the paper's machine with the baseline directory
// protocol.
func DefaultOptions() Options {
	return Options{
		Machine:    protocol.DefaultConfig(),
		Protocol:   Directory,
		IssueWidth: 2,
		Energy:     energy.DefaultParams(),
	}
}

// Result carries the measurements of one run.
type Result struct {
	Benchmark string
	Protocol  ProtocolKind
	Predictor string

	Cycles event.Time // execution time (all cores finished)
	Events uint64     // discrete events fired by the engine (throughput accounting)

	// Directory-protocol statistics (zero for Broadcast runs).
	Nodes protocol.NodeStats

	// Broadcast statistics (zero for Directory runs).
	Snoop snoop.Stats

	Net    noc.Stats
	Energy energy.Breakdown

	// StorageBits is the predictors' total table storage at end of run
	// (post-run occupancy for unbounded tables; configured capacity for
	// bounded ones). Zero without prediction.
	StorageBits int

	// Metrics is the epoch time-series collected when Options.MetricsEpoch
	// is non-zero; nil otherwise. It stays a pointer so the zero-config
	// Result snapshot (and its %+v rendering) is unchanged.
	Metrics *metrics.Series `json:"Metrics,omitempty"`
}

// Misses returns the total L2 miss count.
func (r *Result) Misses() uint64 {
	if r.Protocol == Broadcast {
		return r.Snoop.Misses
	}
	return r.Nodes.Misses
}

// AvgMissLatency returns the mean CPU-visible miss latency in cycles.
func (r *Result) AvgMissLatency() float64 {
	if r.Protocol == Broadcast {
		return r.Snoop.AvgMissLatency()
	}
	return r.Nodes.AvgMissLatency()
}

// CommRatio returns the fraction of misses that are communicating.
func (r *Result) CommRatio() float64 {
	var c, t uint64
	if r.Protocol == Broadcast {
		c, t = r.Snoop.Communicating, r.Snoop.Misses
	} else {
		c, t = r.Nodes.Communicating, r.Nodes.Misses
	}
	if t == 0 {
		return 0
	}
	return float64(c) / float64(t)
}

// Run executes a program to completion and returns measurements. It errors
// on deadlock (cores unfinished with an empty event queue).
func Run(prog *workload.Program, opt Options) (*Result, error) {
	if opt.IssueWidth == 0 {
		opt.IssueWidth = 2
	}
	if opt.Energy == (energy.Params{}) {
		opt.Energy = energy.DefaultParams()
	}
	n := prog.NumThreads()
	if n != opt.Machine.Nodes {
		return nil, fmt.Errorf("sim: %d threads but %d nodes", n, opt.Machine.Nodes)
	}
	if k := len(opt.Predictors); k == 0 {
		opt.Predictors = nil
	} else if k != n {
		return nil, fmt.Errorf("sim: %d predictors for %d nodes (want one per node, or none)", k, n)
	}

	s := event.New()
	co := cpu.NewCoordinator(s, n)
	res := &Result{Benchmark: prog.Name, Protocol: opt.Protocol, Predictor: "directory"}

	var ports []cpu.MemPort
	var dirSys *protocol.System
	var snpSys *snoop.System

	switch opt.Protocol {
	case Directory:
		preds := opt.Predictors
		if preds != nil && opt.Tracer != nil {
			preds = wrapTraced(preds, opt.Tracer, s)
		} else if preds == nil && opt.Tracer != nil {
			preds = make([]predictor.Predictor, n)
			for i := range preds {
				preds[i] = predictor.Null{}
			}
			preds = wrapTraced(preds, opt.Tracer, s)
		}
		dirSys = protocol.New(s, opt.Machine, preds)
		if opt.Predictors != nil && opt.Predictors[0] != nil {
			res.Predictor = opt.Predictors[0].Name()
		}
		for _, node := range dirSys.Nodes {
			ports = append(ports, node)
		}
	case Broadcast:
		snpSys = snoop.New(s, opt.Machine)
		res.Predictor = "broadcast"
		for _, node := range snpSys.Nodes {
			ports = append(ports, snoopPort{node})
		}
	}

	var col *metrics.Collector
	if opt.MetricsEpoch > 0 {
		switch opt.Protocol {
		case Directory:
			col = metrics.NewCollector(s, metrics.Config{
				EpochCycles: opt.MetricsEpoch, Links: dirSys.Net.NumLinks(), Nodes: n,
			})
			col.Attach(dirSys.Net)
			dirSys.SetObserver(col.ProtocolObs())
		case Broadcast:
			col = metrics.NewCollector(s, metrics.Config{
				EpochCycles: opt.MetricsEpoch, Links: snpSys.Net.NumLinks(), Nodes: n,
			})
			col.Attach(snpSys.Net)
			snpSys.SetObserver(col.SnoopObs())
		}
	}

	finished := 0
	cores := make([]*cpu.Core, n)
	for i := 0; i < n; i++ {
		cores[i] = cpu.New(i, s, ports[i], co, prog.Threads[i], opt.IssueWidth, func() { finished++ })
	}
	for _, c := range cores {
		c.Start()
	}

	s.Run()
	if finished < n {
		return nil, fmt.Errorf("sim: deadlock in %s: %d/%d cores finished; %s", prog.Name, finished, n, co.Pending())
	}

	res.Cycles = s.Now()
	res.Events = s.Fired
	if col != nil {
		res.Metrics = col.Finalize(s.Now())
	}
	switch opt.Protocol {
	case Directory:
		for _, node := range dirSys.Nodes {
			res.StorageBits += node.Predictor().StorageBits()
		}
		res.Nodes = dirSys.Stats()
		res.Net = dirSys.NetStats()
		res.Energy = energy.Compute(res.Net, res.Nodes.SnoopLookups, opt.Energy)
		if hard, _ := dirSys.CheckCoherence(); len(hard) > 0 {
			return nil, fmt.Errorf("sim: coherence violation in %s: %s", prog.Name, hard[0])
		}
	case Broadcast:
		res.Snoop = snpSys.Stats()
		res.Net = snpSys.NetStats()
		res.Energy = energy.Compute(res.Net, res.Snoop.SnoopLookups, opt.Energy)
	}
	return res, nil
}

// snoopPort adapts snoop.Node to cpu.MemPort (snooping ignores sync-point
// exposure — it has no predictor).
type snoopPort struct{ n *snoop.Node }

func (p snoopPort) Access(pc uint64, addr arch.Addr, write bool, done func()) {
	p.n.Access(pc, addr, write, done)
}
func (p snoopPort) OnSync(predictor.SyncKind, uint64) {}
