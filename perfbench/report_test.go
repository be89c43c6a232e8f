package main

import (
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"spcoh/internal/event"
	"spcoh/internal/sim"
)

func TestCyclesPerCPUSecondIsSumOverSum(t *testing.T) {
	cells := []cellOut{
		{res: &sim.Result{Cycles: 100}, cpu: time.Second, timed: true},
		{res: &sim.Result{Cycles: 100}, cpu: 3 * time.Second, timed: true},
		// Untimed cells, such as an oracle run, add no host time.
		{res: &sim.Result{Cycles: 1000}, cpu: time.Second},
	}
	// Σcycles/Σcpu = 200/4s; the mean of the two rates would be 66.7.
	if got := sumCells(cells).cyclesPerCPUSecond(); got != 50 {
		t.Fatalf("cycles/s = %v, want 50", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !slices.Equal(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, specNames)
	}
	check := func(kind string, defs []metricDef, listed []metric) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics defined, %d listed", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if l := listed[i]; l != (metric{d.name, d.unit, d.better}) {
				t.Errorf("%s[%d]: defined %+v, listed %+v", kind, i, d, l)
			}
		}
	}
	check("end_to_end", endToEndMetrics, spec.EndToEnd)
	check("per_layer", perLayerMetrics, spec.PerLayer)
}

func TestVerify(t *testing.T) {
	pass := func(digest string, err error, tables string) passOut {
		return passOut{
			cells:  []cellOut{{name: "a/sp", digest: "x"}, {name: "b/sp", digest: digest, err: err}},
			tables: []byte(tables),
		}
	}
	attempted, failed, _ := verify([]passOut{pass("y", nil, "t"), pass("y", nil, "t")})
	if attempted != 6 || failed != 0 {
		t.Fatalf("identical passes: %d/%d failed, want 0/6", failed, attempted)
	}
	// A changed digest, an error, and changed tables each fail.
	attempted, failed, problems := verify([]passOut{
		pass("y", nil, "t"), pass("z", nil, "t"), pass("", errors.New("deadlock"), "u"),
	})
	if attempted != 9 || failed != 3 {
		t.Fatalf("%d/%d failed, want 3/9: %q", failed, attempted, problems)
	}
}

func TestSetResultBudget(t *testing.T) {
	var c cellOut
	c.setResult(&sim.Result{Cycles: 11}, nil, event.Time(10))
	if c.err == nil || c.res != nil {
		t.Fatal("a result over its cycle budget did not fail the cell")
	}
	c = cellOut{}
	c.setResult(&sim.Result{Cycles: 10}, nil, event.Time(10))
	if c.err != nil || c.digest == "" {
		t.Fatalf("a result within budget failed: %v", c.err)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
