package sim

import (
	"strings"
	"testing"

	"spcoh/internal/core"
	"spcoh/internal/predictor"
	"spcoh/internal/protocol"
)

func TestSmallMachine(t *testing.T) {
	cfg, err := protocol.ConfigFor(4)
	if err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "water-ns", 4, 0.2, 1)
	opt := DefaultOptions()
	opt.Machine = cfg
	res, err := Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses() == 0 || res.CommRatio() <= 0 {
		t.Fatalf("4-node run empty: %+v", res)
	}
}

// TestBigMeshCompletes runs the scaled 8x8 and 16x16 machines to
// completion; Run fails on deadlock and on any hard coherence violation.
func TestBigMeshCompletes(t *testing.T) {
	for _, nodes := range []int{64, 256} {
		cfg, err := protocol.ConfigFor(nodes)
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.Machine = cfg
		res, err := Run(mustProgram(t, "ocean", nodes, 0.02, 3), opt)
		if err != nil {
			t.Fatalf("%d-node mesh: %v", nodes, err)
		}
		if res.Misses() == 0 || res.Cycles == 0 {
			t.Fatalf("%d-node mesh run empty: %+v", nodes, res)
		}
	}
}

// TestPredictorCount: a predictor slice must hold one entry per node or
// none; any other length is a configuration error, not a panic.
func TestPredictorCount(t *testing.T) {
	prog := mustProgram(t, "x264", 16, 0.05, 1)
	all := core.NewSystem(core.DefaultConfig(16))
	cases := []struct {
		name  string
		preds []predictor.Predictor
		ok    bool
	}{
		{"empty", []predictor.Predictor{}, true},
		{"short", all[:4], false},
		{"long", append(append([]predictor.Predictor{}, all...), all[0]), false},
	}
	for _, c := range cases {
		opt := DefaultOptions()
		opt.Predictors = c.preds
		res, err := Run(prog, opt)
		switch {
		case c.ok && err != nil:
			t.Errorf("%s (%d predictors): %v", c.name, len(c.preds), err)
		case c.ok && res.Predictor != "directory":
			t.Errorf("%s: predictor %q, want the baseline directory", c.name, res.Predictor)
		case !c.ok && (err == nil || !strings.Contains(err.Error(), "predictors for 16 nodes")):
			t.Errorf("%s (%d predictors): want a predictor-count error, got %v", c.name, len(c.preds), err)
		}
	}
}

func TestConfigForRejectsNonSquare(t *testing.T) {
	for _, n := range []int{0, 5, 7, 12, 200, 1024} {
		if _, err := protocol.ConfigFor(n); err == nil {
			t.Errorf("ConfigFor(%d) should error", n)
		}
	}
	for _, n := range []int{1, 4, 16, 64, 100, 256} {
		cfg, err := protocol.ConfigFor(n)
		if err != nil {
			t.Errorf("ConfigFor(%d): %v", n, err)
			continue
		}
		if cfg.Nodes != n || cfg.NoC.Nodes() != n {
			t.Errorf("ConfigFor(%d) = %+v", n, cfg)
		}
	}
}

func TestResultAccessors(t *testing.T) {
	prog := mustProgram(t, "x264", 16, 0.1, 1)
	res, err := Run(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses() != res.Nodes.Misses {
		t.Fatal("Misses accessor wrong for directory runs")
	}
	opt := DefaultOptions()
	opt.Protocol = Broadcast
	res, err = Run(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses() != res.Snoop.Misses || res.AvgMissLatency() != res.Snoop.AvgMissLatency() {
		t.Fatal("accessors wrong for broadcast runs")
	}
}
