package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"spcoh/internal/sim"
	"spcoh/internal/workload"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics come from untraced passes (-trace 0). Host times are CPU
// times (see cpu.go). The modelled ones (sim_cycles on) are deterministic
// in the seed.
var endToEndMetrics = []metricDef{
	{"cpu_s", "s", "lower"},
	{"sim_cycles_per_cpu_s", "cycles/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_cycles", "cycles", "lower"},
	{"miss_latency_cycles", "cycles", "lower"},
	{"net_bytes", "bytes", "lower"},
	{"energy", "units", "lower"},
}

// perLayerMetrics come from a traced run (-trace 1).
var perLayerMetrics = append([]metricDef{
	{"workload.build_s", "s", "lower"},
	{"workload.ops", "count", "lower"},
	{"workload.ns_per_op", "ns", "lower"},
	{"sim.run_s", "s", "lower"},
	{"event.events", "count", "lower"},
	{"event.events_per_cycle", "count", "lower"},
	{"event.ns_per_event", "ns", "lower"},
	{"noc.packets", "count", "lower"},
	{"noc.flit_hops", "count", "lower"},
	{"noc.stall_cycles", "cycles", "lower"},
	{"noc.avg_latency_cycles", "cycles", "lower"},
	{"cache.l1_hit_ratio", "ratio", "higher"},
	{"cache.l2_hit_ratio", "ratio", "higher"},
	{"protocol.misses", "count", "lower"},
	{"protocol.comm_ratio", "ratio", "lower"},
	{"protocol.nacks", "count", "lower"},
	{"protocol.dup_data", "count", "lower"},
	{"snoop.lookups", "count", "lower"},
	{"predictor.calls", "count", "lower"},
	{"predictor.self_s", "s", "lower"},
	{"predictor.ns_per_call", "ns", "lower"},
	{"predictor.accuracy", "ratio", "higher"},
	{"predictor.precision", "ratio", "higher"},
	{"predictor.extra_targets", "count", "lower"},
	{"predictor.overhead_bytes", "bytes", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"experiments.run_s", "s", "lower"},
	{"experiments.analysis_s", "s", "lower"},
	{"experiments.cells", "count", "lower"},
	{"trace.events", "count", "lower"},
	{"perfbench.untraced_wall_s", "s", "lower"},
	{"perfbench.untraced_cpu_s", "s", "lower"},
	{"perfbench.traced_cpu_s", "s", "lower"},
	{"perfbench.trace_overhead_s", "s", "lower"},
}, cpuShareMetrics()...)

func cpuShareMetrics() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{l + ".cpu_share", "ratio", "lower"})
	}
	return out
}

// metricValue is one metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// withUnits keeps exactly the defined metrics, with their units; a metric
// the workload does not exercise reads 0.
func withUnits(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
	}
	return out
}

// cellSums adds up the simulated statistics of a pass's cells.
type cellSums struct {
	cycles, events uint64

	// Timed cells only: CPU time and what it simulated.
	timedCycles, timedEvents uint64
	timedCPU                 time.Duration

	misses, missLatency             uint64 // CPU-visible, either protocol
	accesses, l1Hits, l2Hits        uint64
	bytes, packets, flitHops, stall uint64
	netLatency, deliveries          uint64
	energy                          float64

	dirMisses, comm, nacks, dupData uint64 // directory cells
	snoopLookups                    uint64 // broadcast cells

	// Cells with a predictor.
	predMisses, predComm, predicted, predCorrect uint64
	predTargets, actualTargets, predBytes        uint64
}

func sumCells(cells []cellOut) cellSums {
	var s cellSums
	for _, c := range cells {
		r := c.res
		if r == nil {
			continue
		}
		s.cycles += uint64(r.Cycles)
		s.events += r.Events
		if c.timed {
			s.timedCycles += uint64(r.Cycles)
			s.timedEvents += r.Events
			s.timedCPU += c.cpu
		}
		s.misses += r.Misses()
		s.bytes += r.Net.Bytes
		s.packets += r.Net.Packets
		s.flitHops += r.Net.FlitHops
		s.stall += r.Net.StallCycles
		s.netLatency += r.Net.TotalLat
		s.deliveries += r.Net.Deliveries
		s.energy += r.Energy.Total()
		if r.Protocol == sim.Broadcast {
			s.missLatency += r.Snoop.MissLatencySum
			s.accesses += r.Snoop.Accesses
			s.l1Hits += r.Snoop.L1Hits
			s.l2Hits += r.Snoop.L2Hits
			s.snoopLookups += r.Snoop.SnoopLookups
			continue
		}
		n := r.Nodes
		s.missLatency += n.MissLatencySum
		s.accesses += n.Accesses
		s.l1Hits += n.L1Hits
		s.l2Hits += n.L2Hits
		s.dirMisses += n.Misses
		s.comm += n.Communicating
		s.nacks += n.Nacks
		s.dupData += n.DupData
		if r.Predictor != "directory" {
			s.predMisses += n.Misses
			s.predComm += n.Communicating
			s.predicted += n.Predicted
			s.predCorrect += n.PredCorrect
			s.predTargets += n.PredTargets
			s.actualTargets += n.ActualTargets
			s.predBytes += n.PredBytesComm + n.PredBytesNonComm
		}
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio[A, B ~uint64 | ~int64 | ~float64](a A, b B) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// cyclesPerCPUSecond is the host throughput of the summed cells: Σ
// simulated cycles over Σ CPU time of the timed cells, not a mean of
// per-cell rates.
func (s cellSums) cyclesPerCPUSecond() float64 { return ratio(s.timedCycles, s.timedCPU.Seconds()) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// medianOf is the median of f over the passes.
func medianOf(passes []passOut, f func(p passOut) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return median(xs)
}

// allCells is every cell of every pass.
func allCells(passes []passOut) []cellOut {
	var cells []cellOut
	for _, p := range passes {
		cells = append(cells, p.cells...)
	}
	return cells
}

// endToEnd computes the end-to-end metrics of untraced passes and of the
// set-ups timed before them. Times are medians of CPU times and the
// throughput is taken over all passes; the modelled metrics are the same
// in every pass of a correct run, and are read from the first.
func endToEnd(passes []passOut, setups []time.Duration) map[string]float64 {
	s := sumCells(passes[0].cells)
	var setupS []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	for _, p := range passes {
		setupS = append(setupS, p.setup.Seconds())
	}
	return map[string]float64{
		"cpu_s":                medianOf(passes, func(p passOut) float64 { return p.cpu.Seconds() }),
		"sim_cycles_per_cpu_s": sumCells(allCells(passes)).cyclesPerCPUSecond(),
		"setup_s":              median(setupS),
		"peak_rss_mb":          medianOf(passes, func(p passOut) float64 { return p.peakRSSMB }),
		"sim_cycles":           float64(s.cycles),
		"miss_latency_cycles":  ratio(s.missLatency, s.misses),
		"net_bytes":            float64(s.bytes),
		"energy":               s.energy,
	}
}

// perLayer computes the per-layer metrics of a traced run: counts from the
// simulated statistics, host times from the untraced passes, self times
// from the traced passes' spans, and CPU shares from their profiles.
func perLayer(untraced, traced []passOut, spans []spanTotals, samples layerSamples) map[string]float64 {
	p := untraced[0]
	s := sumCells(p.cells)
	all := sumCells(allCells(untraced))
	// perPass is the median over the traced passes of f summed over kinds.
	perPass := func(f func(t spanTotals, k spanKind) float64, kinds ...spanKind) float64 {
		xs := make([]float64, len(spans))
		for i, t := range spans {
			for _, k := range kinds {
				xs[i] += f(t, k)
			}
		}
		return median(xs)
	}
	self := func(t spanTotals, k spanKind) float64 { return t.self[k].Seconds() }
	count := func(t spanTotals, k spanKind) float64 { return float64(t.count[k]) }
	predKinds := []spanKind{spanPredict, spanTrain, spanTrainExternal, spanOnSync}
	calls := perPass(count, predKinds...)
	predSelf := perPass(self, predKinds...)
	buildSelf := perPass(self, spanProgram)
	untracedCPU := medianOf(untraced, func(p passOut) float64 { return p.cpu.Seconds() })
	tracedCPU := medianOf(traced, func(p passOut) float64 { return p.cpu.Seconds() })
	v := map[string]float64{
		"workload.build_s":           buildSelf,
		"workload.ops":               float64(p.ops),
		"workload.ns_per_op":         1e9 * ratio(buildSelf, float64(p.ops)),
		"sim.run_s":                  perPass(self, spanSimRun),
		"event.events":               float64(s.events),
		"event.events_per_cycle":     ratio(s.events, s.cycles),
		"event.ns_per_event":         1e9 * ratio(all.timedCPU.Seconds(), float64(all.timedEvents)),
		"noc.packets":                float64(s.packets),
		"noc.flit_hops":              float64(s.flitHops),
		"noc.stall_cycles":           float64(s.stall),
		"noc.avg_latency_cycles":     ratio(s.netLatency, s.deliveries),
		"cache.l1_hit_ratio":         ratio(s.l1Hits, s.accesses),
		"cache.l2_hit_ratio":         ratio(s.l2Hits, s.accesses-s.l1Hits),
		"protocol.misses":            float64(s.dirMisses),
		"protocol.comm_ratio":        ratio(s.comm, s.dirMisses),
		"protocol.nacks":             float64(s.nacks),
		"protocol.dup_data":          float64(s.dupData),
		"snoop.lookups":              float64(s.snoopLookups),
		"predictor.calls":            calls,
		"predictor.self_s":           predSelf,
		"predictor.ns_per_call":      1e9 * ratio(predSelf, calls),
		"predictor.accuracy":         ratio(s.predCorrect, s.predComm),
		"predictor.precision":        ratio(s.predCorrect, s.predicted),
		"predictor.extra_targets":    extraTargets(s),
		"predictor.overhead_bytes":   float64(s.predBytes),
		"runtime.alloc_mb":           medianOf(untraced, func(p passOut) float64 { return float64(p.allocBytes) / (1 << 20) }),
		"runtime.gc_cycles":          medianOf(untraced, func(p passOut) float64 { return float64(p.gcCycles) }),
		"experiments.run_s":          perPass(self, spanRunnerRun),
		"experiments.analysis_s":     perPass(self, spanRunnerAnalysis),
		"trace.events":               float64(p.traceEvents),
		"perfbench.untraced_wall_s":  medianOf(untraced, func(p passOut) float64 { return p.wall.Seconds() }),
		"perfbench.untraced_cpu_s":   untracedCPU,
		"perfbench.traced_cpu_s":     tracedCPU,
		"perfbench.trace_overhead_s": tracedCPU - untracedCPU,
	}
	if p.tables != nil {
		v["experiments.cells"] = float64(len(p.cells))
	}
	total := samples.total()
	for _, l := range cpuLayers {
		v[l+".cpu_share"] = ratio(samples[l], total)
	}
	return v
}

// extraTargets is how many more targets a prediction names, on average,
// than a miss needs (Table 5's predicted minus actual set size).
func extraTargets(s cellSums) float64 {
	if s.predicted == 0 {
		return 0
	}
	return ratio(s.predTargets, s.predicted) - ratio(s.actualTargets, s.predMisses)
}

// verify counts attempted and failed cells over all passes of a run. A
// cell fails on an error of its own, or when its digest differs from the
// one it had in the first pass that produced it. On figures each pass also
// attempts its tables, which fail unless byte-identical across passes.
func verify(passes []passOut) (attempted, failed int, problems []string) {
	want := map[string]string{}
	var tables []byte
	for i, p := range passes {
		for _, c := range p.cells {
			attempted++
			switch ref, seen := want[c.name]; {
			case c.err != nil:
				failed++
				problems = append(problems, fmt.Sprintf("pass %d: %s: %v", i, c.name, c.err))
			case !seen:
				want[c.name] = c.digest
			case ref != c.digest:
				failed++
				problems = append(problems, fmt.Sprintf("pass %d: %s: digest %s, first %s", i, c.name, c.digest, ref))
			}
		}
		if p.tables == nil && p.tablesErr == nil {
			continue
		}
		attempted++
		switch {
		case p.tablesErr != nil:
			failed++
			problems = append(problems, fmt.Sprintf("pass %d: tables: %v", i, p.tablesErr))
		case tables == nil:
			tables = p.tables
		case !bytes.Equal(tables, p.tables):
			failed++
			problems = append(problems, fmt.Sprintf("pass %d: tables differ from the first pass", i))
		}
	}
	return attempted, failed, problems
}

// provenance says what produced a result, so numbers from different
// hosts, commits or workload definitions are never compared unawares.
type provenance struct {
	Workload     string       `json:"workload"`
	Seed         int64        `json:"seed"`
	Trace        int          `json:"trace"`
	Commit       string       `json:"commit"`
	Dirty        bool         `json:"dirty"`
	SourceDigest string       `json:"source_digest"`
	GoVersion    string       `json:"go_version"`
	NumCPU       int          `json:"num_cpu"`
	GOMAXPROCS   int          `json:"gomaxprocs"`
	Host         string       `json:"host"`
	Specs        []specDigest `json:"specs"`
}

type specDigest struct {
	Profile string `json:"profile"`
	Digest  string `json:"digest"`
}

func newProvenance(w benchWorkload, seed int64, trace int) (provenance, error) {
	p := provenance{
		Workload: w.name, Seed: seed, Trace: trace, Commit: "unknown",
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	p.Host, _ = os.Hostname() // an unknown host name leaves the field empty
	for _, ps := range w.programs {
		prof, err := workload.ByName(ps.profile)
		if err != nil {
			return p, err
		}
		p.Specs = append(p.Specs, specDigest{ps.profile, prof.Spec.Digest()})
	}
	var err error
	p.SourceDigest, err = sourceDigest(".")
	return p, err
}

// sourceDigest hashes the Go sources, module files and JSON specs under
// root, so a checkout without version-control metadata is identified too.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && !strings.HasSuffix(name, ".json") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path lies under root
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}
