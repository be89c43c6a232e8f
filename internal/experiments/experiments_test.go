package experiments

import (
	"strings"
	"sync"
	"testing"

	"spcoh/internal/sim"
)

func tinyRunner() *Runner {
	return NewRunner(Config{Threads: 16, Scale: 0.05, Seed: 7})
}

func TestRegistryCompleteAndOrdered(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("experiments = %d, want 14", len(all))
	}
	want := []string{"table1", "fig1", "fig2", "fig4", "fig5", "fig6", "fig7",
		"table5", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("order: got %s at %d, want %s", e.ID, i, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestRunnerCaching(t *testing.T) {
	r := tinyRunner()
	a, err := r.Run("x264", "dir")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("x264", "dir")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("runner must cache results")
	}
	a1, err := r.Analysis("x264")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.Analysis("x264")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("runner must cache analyses")
	}
}

// TestRunnerErrors: failures surface as errors, never as panics, and a
// failed key stays failed on recall.
func TestRunnerErrors(t *testing.T) {
	r := tinyRunner()
	if _, err := r.Run("no-such-bench", "dir"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if _, err := r.Run("x264", "no-such-kind"); err == nil {
		t.Fatal("unknown configuration must error")
	}
	if _, err := r.Analysis("no-such-bench"); err == nil {
		t.Fatal("unknown benchmark analysis must error")
	}
	// Recall of a failed key returns the cached error.
	if _, err := r.Run("x264", "no-such-kind"); err == nil ||
		!strings.Contains(err.Error(), "no-such-kind") {
		t.Fatalf("cached error lost: %v", err)
	}
}

// TestRunnerSingleFlightPanic: a panicking computation becomes an error for
// every waiter; nothing deadlocks or crashes.
func TestRunnerSingleFlightPanic(t *testing.T) {
	var c cache[int]
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.do("boom", func() (int, error) { panic("kaboom") })
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("caller %d: err = %v, want panic converted to error", i, err)
		}
	}
}

// TestRunnerConcurrent hammers one Runner from many goroutines: the
// single-flight cache must hand every caller the same result pointer
// (i.e. each simulation ran exactly once) without data races.
func TestRunnerConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := tinyRunner()
	const callers = 8
	var wg sync.WaitGroup
	results := make([]*sim.Result, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kind := "dir"
			if i%2 == 1 {
				kind = "sp"
			}
			results[i], errs[i] = r.Run("x264", kind)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[i%2] {
			t.Fatalf("caller %d got a different pointer than caller %d: single-flight broken", i, i%2)
		}
	}
}

func TestCharacterizationTables(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := tinyRunner()
	for _, id := range []string{"table1", "fig1", "fig5"} {
		e, _ := ByID(id)
		tab, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := tab.String()
		if !strings.Contains(out, "x264") || !strings.Contains(out, "fmm") {
			t.Fatalf("%s missing benchmarks:\n%s", id, out)
		}
	}
}

func TestEvaluationTables(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := tinyRunner()
	for _, id := range []string{"fig8", "fig9", "table5"} {
		e, _ := ByID(id)
		tab, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := tab.String()
		if !strings.Contains(out, "average") && id != "table5" {
			t.Fatalf("%s missing average row:\n%s", id, out)
		}
	}
	// Normalized latencies must be sensible.
	spRes, err := r.Run("x264", "sp")
	if err != nil {
		t.Fatal(err)
	}
	dirRes, err := r.Run("x264", "dir")
	if err != nil {
		t.Fatal(err)
	}
	fig8 := spRes.AvgMissLatency() / dirRes.AvgMissLatency()
	if fig8 <= 0 || fig8 > 1.5 {
		t.Fatalf("sp/dir latency ratio implausible: %v", fig8)
	}
}

func TestTradeoffPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := tinyRunner()
	x, y, err := tradeoffPoint(r, "x264", "sp")
	if err != nil {
		t.Fatal(err)
	}
	if x < 0 || y < 0 || y > 100 {
		t.Fatalf("tradeoff point out of range: %v %v", x, y)
	}
	// The directory reference point is (0, 100) by construction.
	if _, yDir, err := tradeoffPoint(r, "x264", "dir"); err != nil || yDir != 100 {
		t.Fatalf("directory y = %v (err %v), want 100", yDir, err)
	}
}

// TestKindsMatchRunner: every advertised kind must be accepted by Options
// and CheckKind (the sweep matrix check validates against this list).
func TestKindsMatchRunner(t *testing.T) {
	for _, k := range Kinds() {
		if err := CheckKind(k); err != nil {
			t.Errorf("kind %q rejected by CheckKind: %v", k, err)
		}
		if k == "oracle" {
			continue // requires a profiling pass; covered by TestEvaluationTables
		}
		if _, err := Options(16, k); err != nil {
			t.Errorf("kind %q rejected: %v", k, err)
		}
	}
	eval := EvalKinds()
	all := Kinds()
	for _, k := range eval {
		found := false
		for _, a := range all {
			if a == k {
				found = true
			}
		}
		if !found {
			t.Errorf("EvalKinds %q missing from Kinds", k)
		}
	}
}

// TestOptionsResolve pins what every configuration name resolves to, at
// the paper's 16 nodes and on an 8x8 mesh: the protocol, one predictor per
// node (or none) and the predictor's name.
func TestOptionsResolve(t *testing.T) {
	cases := []struct {
		kind  string
		proto sim.ProtocolKind
		pred  string // "" = no predictors
	}{
		{"dir", sim.Directory, ""},
		{"bcast", sim.Broadcast, ""},
		{"sp", sim.Directory, "SP"},
		{"sp+filter", sim.Directory, "SP+filter"},
		{"sp512", sim.Directory, "SP"},
		{"addr", sim.Directory, "ADDR"},
		{"inst", sim.Directory, "INST"},
		{"uni", sim.Directory, "UNI"},
		{"addr-small", sim.Directory, "ADDR-small"},
		{"inst-small", sim.Directory, "INST-small"},
	}
	if len(cases) != len(Kinds())-1 {
		t.Fatalf("%d cases for %d kinds (all but oracle)", len(cases), len(Kinds())-1)
	}
	for _, threads := range []int{16, 64} {
		for _, c := range cases {
			opt, err := Options(threads, c.kind)
			if err != nil {
				t.Fatalf("%s/%d: %v", c.kind, threads, err)
			}
			if opt.Machine.Nodes != threads || opt.Protocol != c.proto {
				t.Errorf("%s/%d: %d nodes, protocol %v", c.kind, threads, opt.Machine.Nodes, opt.Protocol)
			}
			if c.pred == "" {
				if opt.Predictors != nil {
					t.Errorf("%s/%d: %d predictors, want nil", c.kind, threads, len(opt.Predictors))
				}
				continue
			}
			if len(opt.Predictors) != threads {
				t.Fatalf("%s/%d: %d predictors", c.kind, threads, len(opt.Predictors))
			}
			if got := opt.Predictors[threads-1].Name(); got != c.pred {
				t.Errorf("%s/%d: predictor %q, want %q", c.kind, threads, got, c.pred)
			}
		}
	}
	if opt, _ := Options(16, "dir"); opt.Machine != sim.DefaultOptions().Machine {
		t.Error("16 threads must resolve to the paper's default machine")
	}
	if _, err := Options(16, "nosuch"); err == nil || !strings.Contains(err.Error(), "sp+filter") {
		t.Errorf("unknown kind: err %v, want one listing Kinds()", err)
	}
	if _, err := Options(17, "dir"); err == nil {
		t.Error("17 threads must error")
	}
	if _, err := Options(16, "oracle"); err == nil {
		t.Error("oracle needs a profiling pass and must not resolve standalone")
	}
}
