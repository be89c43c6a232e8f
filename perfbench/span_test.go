package main

import (
	"encoding/json"
	"sync"
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/core"
	"spcoh/internal/predictor"
	"spcoh/internal/sim"
)

func TestTotalsSelfTime(t *testing.T) {
	spans := []Span{
		{Start: 0, End: 100, Parent: noSpan, Kind: spanPass},
		{Start: 10, End: 50, Parent: 0, Kind: spanRunnerRun},
		{Start: 30, End: 70, Parent: 0, Kind: spanRunnerRun}, // overlaps its sibling
		{Start: 20, End: 25, Parent: 1, Kind: spanPredict},
		{Start: 40, End: 45, Parent: 1, Kind: spanPredict},
	}
	tot := totals(spans)
	// The pass's children cover [10, 70): 60 of its 100 ns.
	if got := tot.self[spanPass]; got != 40 {
		t.Errorf("pass self = %d, want 40", got)
	}
	// 40-10 on the first run, 40 on the second.
	if got := tot.self[spanRunnerRun]; got != 70 {
		t.Errorf("run self = %d, want 70", got)
	}
	if got, n := tot.self[spanPredict], tot.count[spanPredict]; got != 10 || n != 2 {
		t.Errorf("predict self = %d over %d spans, want 10 over 2", got, n)
	}
}

func TestNilTraceRecordsNothing(t *testing.T) {
	var tr *Trace
	id := tr.Begin(spanSimRun, noSpan)
	tr.End(id)
	if id != noSpan {
		t.Fatalf("nil trace returned span id %d", id)
	}
}

// fakePredictor counts the calls it receives, including the optional
// TrainExternal.
type fakePredictor struct {
	predictor.Null
	external int
}

func (f *fakePredictor) TrainExternal(arch.LineAddr, arch.NodeID) { f.external++ }

func TestTimedPredictorForwardsTrainExternal(t *testing.T) {
	tr := newTrace()
	inner := &fakePredictor{}
	w := wrapPredictors([]predictor.Predictor{inner}, tr, noSpan)[0]
	et, ok := w.(interface {
		TrainExternal(arch.LineAddr, arch.NodeID)
	})
	if !ok {
		t.Fatal("the wrapper does not offer TrainExternal")
	}
	et.TrainExternal(1, 2)
	if inner.external != 1 {
		t.Fatalf("inner TrainExternal called %d times, want 1", inner.external)
	}
	if tot := totals(tr.spans); tot.count[spanTrainExternal] != 1 {
		t.Fatalf("recorded %d TrainExternal spans, want 1", tot.count[spanTrainExternal])
	}

	// A predictor without the method: the call is dropped, unrecorded.
	plain := wrapPredictors([]predictor.Predictor{predictor.Null{}}, tr, noSpan)[0]
	plain.(interface {
		TrainExternal(arch.LineAddr, arch.NodeID)
	}).TrainExternal(1, 2)
	if tot := totals(tr.spans); tot.count[spanTrainExternal] != 1 {
		t.Fatal("a wrapped predictor without TrainExternal recorded a call")
	}
}

// TestWrappedPredictorsKeepResults runs the same program with and without
// the timing wrapper and requires byte-identical results.
func TestWrappedPredictorsKeepResults(t *testing.T) {
	const nodes = 16
	progs, _, err := build([]programSpec{{"ocean", nodes, 0.05}}, 42, nil, noSpan)
	if err != nil {
		t.Fatal(err)
	}
	prog := progs[0]
	kinds := map[string]func() []predictor.Predictor{
		"sp": func() []predictor.Predictor { return core.NewSystem(core.DefaultConfig(nodes)) },
		"addr": func() []predictor.Predictor {
			preds := make([]predictor.Predictor, nodes)
			for i := range preds {
				preds[i] = predictor.NewAddr(arch.NodeID(i), nodes)
			}
			return preds
		},
		"sp+filter": func() []predictor.Predictor {
			preds := core.NewSystem(core.DefaultConfig(nodes))
			for i := range preds {
				preds[i] = predictor.NewRegionFilter(preds[i])
			}
			return preds
		},
	}
	for _, kind := range []string{"sp", "addr", "sp+filter"} {
		t.Run(kind, func(t *testing.T) {
			run := func(tr *Trace) []byte {
				opt := sim.DefaultOptions()
				opt.Predictors = kinds[kind]()
				if tr != nil {
					opt.Predictors = wrapPredictors(opt.Predictors, tr, noSpan)
				}
				res, err := sim.Run(prog, opt)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			tr := newTrace()
			if plain, wrapped := run(nil), run(tr); string(plain) != string(wrapped) {
				t.Fatalf("results differ with the timing wrapper:\n%s\n%s", plain, wrapped)
			}
			tot := totals(tr.spans)
			if tot.count[spanPredict] == 0 || tot.count[spanTrain] == 0 {
				t.Fatalf("no predictor calls recorded: %v", tot.count)
			}
			if kind == "sp+filter" && tot.count[spanTrainExternal] == 0 {
				t.Fatal("sp+filter recorded no TrainExternal calls")
			}
		})
	}
}

// TestTraceConcurrent records from two goroutines at once, as the figures
// workload's workers do; run it under -race.
func TestTraceConcurrent(t *testing.T) {
	tr := newTrace()
	root := tr.Begin(spanPass, noSpan)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				tr.End(tr.Begin(spanRunnerRun, root))
			}
		}()
	}
	wg.Wait()
	tr.End(root)
	if n := totals(tr.spans).count[spanRunnerRun]; n != 2000 {
		t.Fatalf("recorded %d spans, want 2000", n)
	}
}
