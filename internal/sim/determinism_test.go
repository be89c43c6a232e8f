package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"spcoh/internal/charac"
	"spcoh/internal/core"
	"spcoh/internal/event"
	"spcoh/internal/predictor"
	"spcoh/internal/scenario"
	"spcoh/internal/trace"
	"spcoh/internal/workload"
)

// snapshot runs one full simulation and serializes everything observable:
// the final stats Result, the raw binary miss/sync trace, and the
// characterization digest built from it. Two runs with the same seed must
// produce byte-identical snapshots.
func snapshot(t *testing.T, bench string, kind ProtocolKind, withSP bool, seed int64) string {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	prog := prof.Build(16, 0.05, seed)

	opt := DefaultOptions()
	opt.Protocol = kind
	var col *trace.Collector
	if kind == Directory {
		col = &trace.Collector{}
		opt.Tracer = col
		if withSP {
			opt.Predictors = core.NewSystem(core.DefaultConfig(16))
		}
	}
	res, err := Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%+v\n", *res)
	if col != nil {
		w := trace.NewWriter(&buf)
		for _, e := range col.Events {
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		a := charac.Analyze(col.Events, 16)
		fmt.Fprintf(&buf, "epochIDs=%v\n", a.StaticEpochIDs())
		fmt.Fprintf(&buf, "covPC=%v\n", a.CoverageByPC())
		fmt.Fprintf(&buf, "covEpoch=%v\n", a.CoverageByEpoch())
		cs, se, dyn := a.EpochStats()
		fmt.Fprintf(&buf, "epochStats=%d/%d/%f\n", cs, se, dyn)
	}
	return buf.String()
}

// TestDeterministicReplay asserts the simulator's core reproducibility
// invariant: the same configuration and seed, run twice in the same
// process, produce byte-identical stats, traces and characterization
// output. Go randomizes map iteration per range statement, so any map-order
// dependence in the event path shows up here as a diff.
func TestDeterministicReplay(t *testing.T) {
	// radiosity and dedup are the profiles that consume build-time
	// randomness, so they also prove the snapshot is seed-sensitive.
	cases := []struct {
		name   string
		bench  string
		kind   ProtocolKind
		withSP bool
	}{
		{"directory-sp", "radiosity", Directory, true},
		{"directory-baseline", "dedup", Directory, false},
		{"broadcast", "radiosity", Broadcast, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := snapshot(t, tc.bench, tc.kind, tc.withSP, 42)
			b := snapshot(t, tc.bench, tc.kind, tc.withSP, 42)
			if a != b {
				t.Fatalf("same seed, different results (len %d vs %d):\nfirst diff at byte %d",
					len(a), len(b), firstDiff(a, b))
			}
			// A different seed must actually change the workload: guards
			// against the snapshot accidentally capturing nothing.
			c := snapshot(t, tc.bench, tc.kind, tc.withSP, 43)
			if a == c {
				t.Fatal("different seeds produced identical snapshots; snapshot is insensitive")
			}
		})
	}
}

// TestDeterministicReplayFIFO pins the event engine's same-cycle FIFO
// tie-breaking, which the replay guarantee rests on: events scheduled for
// the same cycle must fire in scheduling order. Deliberately breaking the
// sequence-number tie-break in internal/event fails this test.
func TestDeterministicReplayFIFO(t *testing.T) {
	s := event.New()
	var got []int
	const n = 64
	// Interleave two batches at the same timestamp behind an earlier event,
	// so heap sift order differs from scheduling order unless seq breaks
	// the tie.
	for i := 0; i < n; i++ {
		i := i
		s.At(10, func() { got = append(got, i) })
	}
	s.At(5, func() { got = append(got, -1) })
	for i := n; i < 2*n; i++ {
		i := i
		s.At(10, func() { got = append(got, i) })
	}
	s.Run()
	if len(got) != 2*n+1 || got[0] != -1 {
		t.Fatalf("fired %d events, first %v", len(got), got[:1])
	}
	for i := 0; i < 2*n; i++ {
		if got[i+1] != i {
			t.Fatalf("same-cycle events fired out of scheduling order: position %d got %d", i, got[i+1])
		}
	}
}

// TestGeneratedScenarioReplay runs a generated scenario spec (the fuzzer's
// output, not a hand-written profile) with the SP predictor twice: the run
// must complete and serialize to identical bytes.
func TestGeneratedScenarioReplay(t *testing.T) {
	spec := scenario.Generate(42, scenario.GenOptions{})
	var runs [2]string
	for i := range runs {
		prog, err := workload.FromSpec(spec, 16, 0.1, 7)
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.Predictors = core.NewSystem(core.DefaultConfig(16))
		res, err := Run(prog, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = string(b)
	}
	if runs[0] != runs[1] {
		t.Fatalf("generated scenario replay differs at byte %d", firstDiff(runs[0], runs[1]))
	}
}

// TestWorkloadBuildDeterministic asserts the seeded builder emits identical
// op streams per seed (the injected-*rand.Rand invariant of
// internal/workload).
func TestWorkloadBuildDeterministic(t *testing.T) {
	for _, bench := range []string{"fmm", "dedup", "x264"} {
		prof, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		a := fmt.Sprintf("%+v", prof.Build(16, 0.05, 7).Threads)
		b := fmt.Sprintf("%+v", prof.Build(16, 0.05, 7).Threads)
		if a != b {
			t.Fatalf("%s: same seed produced different op streams", bench)
		}
	}
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

var _ predictor.Predictor = (*traced)(nil) // traced must stay a Predictor
