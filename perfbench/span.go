package main

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"spcoh/internal/arch"
	"spcoh/internal/predictor"
)

// spanKind names what a span wraps. It is a byte, not a string, because a
// traced mesh4-sp pass records about 1.4M predictor spans.
type spanKind uint8

const (
	spanPass spanKind = iota
	spanProgram
	spanSimRun
	spanRunnerRun
	spanRunnerAnalysis
	spanTables
	spanPredict
	spanTrain
	spanTrainExternal
	spanOnSync
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanPass:           "perfbench.pass",
	spanProgram:        "workload.Profile.Program",
	spanSimRun:         "sim.Run",
	spanRunnerRun:      "experiments.Runner.Run",
	spanRunnerAnalysis: "experiments.Runner.Analysis",
	spanTables:         "experiments.tables",
	spanPredict:        "predictor.Predict",
	spanTrain:          "predictor.Train",
	spanTrainExternal:  "predictor.TrainExternal",
	spanOnSync:         "predictor.OnSync",
}

func (k spanKind) String() string { return spanNames[k] }

// isPredictor reports whether the span wraps one predictor call.
func (k spanKind) isPredictor() bool { return k >= spanPredict && k <= spanOnSync }

// noSpan is the id Begin returns on a nil Trace and the parent of a root.
const noSpan int32 = -1

// Span is one timed call: its start and end in nanoseconds since the
// trace's origin, and the index of the span that caused it.
type Span struct {
	Start, End int64
	Parent     int32
	Kind       spanKind
}

// Trace keeps every span of one pass in memory. A nil *Trace records
// nothing, so untraced passes call the same code. It is safe for
// concurrent use: the figures workload records from two workers.
type Trace struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newTrace() *Trace { return &Trace{origin: time.Now()} }

// Begin opens a span and returns its id.
func (t *Trace) Begin(k spanKind, parent int32) int32 {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{Start: now, End: now, Parent: parent, Kind: k})
	t.mu.Unlock()
	return id
}

// End closes the span Begin returned.
func (t *Trace) End(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// spanTotals is the per-kind aggregate of one pass's spans.
type spanTotals struct {
	count [numSpanKinds]int
	self  [numSpanKinds]time.Duration
}

// totals sums each kind's count and self time. A span's self time is its
// duration minus the part of its interval that its children cover; the
// children of one span may overlap when two workers record under it.
func totals(spans []Span) spanTotals {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	var tot spanTotals
	for i, s := range spans {
		tot.count[s.Kind]++
		tot.self[s.Kind] += time.Duration(s.End - s.Start - covered(spans, children[int32(i)], s))
	}
	return tot
}

// covered returns how many nanoseconds of p's interval the union of the
// given child spans covers.
func covered(spans []Span, kids []int32, p Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var sum, end int64
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			sum += v[1] - end
			end = v[1]
		}
	}
	return sum
}

// timedPredictor records a span around every call into a predictor. It
// forwards the optional TrainExternal method the directory protocol
// type-asserts for, so wrapping changes no simulated statistic.
type timedPredictor struct {
	inner  predictor.Predictor
	tr     *Trace
	parent int32
}

// wrapPredictors wraps each predictor; parent is the enclosing sim.Run span.
func wrapPredictors(preds []predictor.Predictor, tr *Trace, parent int32) []predictor.Predictor {
	out := make([]predictor.Predictor, len(preds))
	for i, p := range preds {
		out[i] = &timedPredictor{inner: p, tr: tr, parent: parent}
	}
	return out
}

func (p *timedPredictor) Name() string     { return p.inner.Name() }
func (p *timedPredictor) StorageBits() int { return p.inner.StorageBits() }

func (p *timedPredictor) Predict(m predictor.Miss) (arch.SharerSet, predictor.Tag) {
	id := p.tr.Begin(spanPredict, p.parent)
	s, tag := p.inner.Predict(m)
	p.tr.End(id)
	return s, tag
}

func (p *timedPredictor) Train(m predictor.Miss, o predictor.Outcome) {
	id := p.tr.Begin(spanTrain, p.parent)
	p.inner.Train(m, o)
	p.tr.End(id)
}

func (p *timedPredictor) OnSync(e predictor.SyncEvent) {
	id := p.tr.Begin(spanOnSync, p.parent)
	p.inner.OnSync(e)
	p.tr.End(id)
}

// TrainExternal forwards to the wrapped predictor when it implements the
// method; otherwise the call is a no-op, as the unwrapped type assertion
// failing would have been.
func (p *timedPredictor) TrainExternal(line arch.LineAddr, requester arch.NodeID) {
	et, ok := p.inner.(interface {
		TrainExternal(arch.LineAddr, arch.NodeID)
	})
	if !ok {
		return
	}
	id := p.tr.Begin(spanTrainExternal, p.parent)
	et.TrainExternal(line, requester)
	p.tr.End(id)
}
