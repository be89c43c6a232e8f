// Package experiments regenerates every table and figure of the paper's
// characterization (§3) and evaluation (§5) sections. Each experiment is a
// named generator producing a text table; the spbench command and the
// repository's bench suite drive them.
package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"spcoh/internal/arch"
	"spcoh/internal/charac"
	"spcoh/internal/core"
	"spcoh/internal/event"
	"spcoh/internal/predictor"
	"spcoh/internal/protocol"
	"spcoh/internal/runcfg"
	"spcoh/internal/scenario"
	"spcoh/internal/sim"
	"spcoh/internal/trace"
	"spcoh/internal/workload"
)

// Config scales the experiment workloads. It is the shared run
// configuration (see internal/runcfg); the sweep layer embeds the same
// struct in its jobs, so a cell's sizing flows through unconverted.
// MetricsEpoch semantics here: non-zero enables the run-time metrics
// collector on every measurement run; auxiliary passes (oracle profiling,
// trace capture) never collect.
type Config = runcfg.RunConfig

// Default is the full-size configuration used for EXPERIMENTS.md.
func Default() Config { return Config{Threads: 16, Scale: 1.0, Seed: 42} }

// Quick is a reduced configuration for smoke runs and -short benchmarks.
func Quick() Config { return Config{Threads: 16, Scale: 0.25, Seed: 42} }

// Kinds returns every configuration name understood by Runner.Run, in
// evaluation order. It is the repository's one configuration vocabulary:
// the commands, the sweep matrix and the public spcoh API all use it.
func Kinds() []string {
	return []string{"dir", "bcast", "sp", "sp+filter", "sp512",
		"addr", "inst", "uni", "addr-small", "inst-small", "oracle"}
}

// EvalKinds returns the paper's §5 comparison set (the sweep run by
// spsweep's default matrix).
func EvalKinds() []string {
	return []string{"dir", "bcast", "sp", "sp+filter", "addr", "inst", "uni", "oracle"}
}

// Runner executes and caches simulation runs; experiments share results.
// It is safe for concurrent use: every cache key is computed exactly once
// (single-flight), and concurrent callers of an in-flight key block until
// the first computation finishes and then share its outcome.
type Runner struct {
	Cfg Config

	// Spec, when set, adds one scenario-spec workload: a bench name equal
	// to the spec's name resolves to the spec instead of a built-in
	// profile. Its program cache key is the spec's content digest, so two
	// distinct specs sharing a name (e.g. two "fuzz-1" variants across
	// runner instances) can never alias a cached program.
	Spec *scenario.Spec

	results  cache[*sim.Result]
	analyses cache[*charac.Analysis]
	programs cache[*workload.Program]
}

// NewRunner builds an empty cache over cfg.
func NewRunner(cfg Config) *Runner { return &Runner{Cfg: cfg} }

// cache is a concurrency-safe, single-flight memoization table. The first
// caller of a key runs fn while later callers wait on the same flight and
// share its result, so a simulation is never executed twice. A panic inside
// fn becomes the key's error: waiters never hang and callers get a
// diagnosable failure instead of a crashed process.
type cache[T any] struct {
	mu sync.Mutex
	m  map[string]*flight[T]
}

type flight[T any] struct {
	done sync.WaitGroup
	val  T
	err  error
}

func (c *cache[T]) do(key string, fn func() (T, error)) (T, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]*flight[T])
	}
	if f, ok := c.m[key]; ok {
		c.mu.Unlock()
		f.done.Wait()
		return f.val, f.err
	}
	f := new(flight[T])
	f.done.Add(1)
	c.m[key] = f
	c.mu.Unlock()
	defer f.done.Done()
	f.val, f.err = protect(key, fn)
	return f.val, f.err
}

// protect runs fn, converting a panic into a returned error.
func protect[T any](key string, fn func() (T, error)) (val T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiments: %s: panic: %v", key, p)
		}
	}()
	return fn()
}

func (r *Runner) program(bench string) (*workload.Program, error) {
	if r.Spec != nil && bench == r.Spec.Name {
		return r.programs.do("spec:"+r.Spec.Digest(), func() (*workload.Program, error) {
			return workload.FromSpec(r.Spec, r.Cfg.Threads, r.Cfg.Scale, r.Cfg.Seed)
		})
	}
	return r.programs.do(bench, func() (*workload.Program, error) {
		prof, err := workload.ByName(bench)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		return prof.Program(r.Cfg.Threads, r.Cfg.Scale, r.Cfg.Seed)
	})
}

// Options resolves a configuration name to the simulator options of one
// run with the given thread count: the machine sized by protocol.ConfigFor,
// the protocol, and the per-node predictor set. It is the one place a
// configuration name becomes a machine; it covers every Kinds() entry
// except "oracle", whose predictors replay a profiling pass (Runner.Run).
func Options(threads int, kind string) (sim.Options, error) {
	opt := sim.DefaultOptions()
	m, err := protocol.ConfigFor(threads)
	if err != nil {
		return opt, fmt.Errorf("experiments: %w", err)
	}
	opt.Machine = m
	n := threads
	mk := func(f func(arch.NodeID) predictor.Predictor) []predictor.Predictor {
		preds := make([]predictor.Predictor, n)
		for i := range preds {
			preds[i] = f(arch.NodeID(i))
		}
		return preds
	}
	switch kind {
	case "dir":
	case "bcast":
		opt.Protocol = sim.Broadcast
	case "sp":
		opt.Predictors = core.NewSystem(core.DefaultConfig(n))
	case "sp+filter":
		// §5.3 extension: a region snoop filter suppressing prediction
		// attempts on private data.
		preds := core.NewSystem(core.DefaultConfig(n))
		for i := range preds {
			preds[i] = predictor.NewRegionFilter(preds[i])
		}
		opt.Predictors = preds
	case "sp512":
		cfg := core.DefaultConfig(n)
		cfg.MaxEntries = 512
		opt.Predictors = core.NewSystem(cfg)
	case "addr":
		opt.Predictors = mk(func(id arch.NodeID) predictor.Predictor { return predictor.NewAddr(id, n) })
	case "inst":
		opt.Predictors = mk(func(id arch.NodeID) predictor.Predictor { return predictor.NewInst(id, n) })
	case "uni":
		opt.Predictors = mk(func(id arch.NodeID) predictor.Predictor { return predictor.NewUni(id, n) })
	case "addr-small":
		// ~0.5KB per node: the capacity wall sits ~8x lower than the
		// paper's 4KB because the synthetic working sets are ~8x smaller.
		opt.Predictors = mk(func(id arch.NodeID) predictor.Predictor {
			cfg := predictor.DefaultAddrConfig(n)
			cfg.Entries = 64
			return predictor.NewGroup("ADDR-small", id, cfg)
		})
	case "inst-small":
		opt.Predictors = mk(func(id arch.NodeID) predictor.Predictor {
			cfg := predictor.DefaultInstConfig(n)
			cfg.Entries = 64
			return predictor.NewGroup("INST-small", id, cfg)
		})
	case "oracle":
		return opt, errors.New(`experiments: configuration "oracle" needs a profiling pass; run it through Runner.Run`)
	default:
		return opt, fmt.Errorf("experiments: %w", CheckKind(kind))
	}
	return opt, nil
}

// CheckKind rejects a configuration name not in Kinds().
func CheckKind(kind string) error {
	for _, k := range Kinds() {
		if k == kind {
			return nil
		}
	}
	return fmt.Errorf("unknown kind %q (have: %s)", kind, strings.Join(Kinds(), ","))
}

// oracleOptions runs the oracle's profiling pass over prog — an SP run
// recording every communication instance into a book — and returns the
// options of the run replaying that book.
func (r *Runner) oracleOptions(bench string, prog *workload.Program) (sim.Options, error) {
	opt, err := Options(r.Cfg.Threads, "dir")
	if err != nil {
		return opt, err
	}
	b := core.NewOracleBook()
	opt.Predictors = core.RecorderSystem(core.DefaultConfig(r.Cfg.Threads), b)
	if _, err := sim.Run(prog, opt); err != nil {
		return opt, fmt.Errorf("experiments: oracle profiling %s: %w", bench, err)
	}
	opt.Predictors = core.OracleSystem(r.Cfg.Threads, b)
	return opt, nil
}

// Run executes (or recalls) one benchmark under one configuration.
func (r *Runner) Run(bench, kind string) (*sim.Result, error) {
	key := bench + "/" + kind
	return r.results.do(key, func() (*sim.Result, error) {
		prog, err := r.program(bench)
		if err != nil {
			return nil, err
		}
		var opt sim.Options
		if kind == "oracle" {
			opt, err = r.oracleOptions(bench, prog)
		} else {
			opt, err = Options(r.Cfg.Threads, kind)
		}
		if err != nil {
			return nil, err
		}
		opt.MetricsEpoch = event.Time(r.Cfg.MetricsEpoch)
		res, err := sim.Run(prog, opt)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", key, err)
		}
		return res, nil
	})
}

// Analysis executes (or recalls) the trace-collection run for a benchmark
// and digests it (the paper's §3.2 methodology: a baseline-directory run
// with trace capture).
func (r *Runner) Analysis(bench string) (*charac.Analysis, error) {
	return r.analyses.do(bench, func() (*charac.Analysis, error) {
		prog, err := r.program(bench)
		if err != nil {
			return nil, err
		}
		col := &trace.Collector{}
		opt, err := Options(r.Cfg.Threads, "dir")
		if err != nil {
			return nil, err
		}
		opt.Tracer = col
		if _, err := sim.Run(prog, opt); err != nil {
			return nil, fmt.Errorf("experiments: trace %s: %w", bench, err)
		}
		return charac.Analyze(col.Events, r.Cfg.Threads), nil
	})
}

// RunCell executes one (bench, kind) simulation cell standalone: it builds
// the program, the predictor set (including the oracle profiling pass when
// kind is "oracle") and runs the simulation, sharing no state with any
// other cell. It is the executor behind internal/sweep jobs: because each
// cell is self-contained, cells parallelize trivially, and determinism of
// the simulator guarantees a cell's result depends only on (cfg, bench,
// kind).
func RunCell(cfg Config, bench, kind string) (*sim.Result, error) {
	return NewRunner(cfg).Run(bench, kind)
}

// RunSpecCell executes one simulation cell for a scenario spec, exactly as
// RunCell does for a built-in benchmark: self-contained, sharing no state
// with other cells, deterministic in (cfg, spec, kind).
func RunSpecCell(cfg Config, spec *scenario.Spec, kind string) (*sim.Result, error) {
	r := NewRunner(cfg)
	r.Spec = spec
	return r.Run(spec.Name, kind)
}

// Benchmarks returns the benchmark list in paper order.
func Benchmarks() []string { return workload.Names() }
