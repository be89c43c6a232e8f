package main

// -scale-bench: the big-mesh scaling matrix (DESIGN.md §16). Where
// -core-bench tracks the repository's throughput trend on the fixed 4×4
// configuration (and feeds the rolling-baseline regression gate —
// unchanged by this mode), -scale-bench answers a different question: how
// does the serial engine's throughput change as the mesh grows? It times
// one seeded workload on every mesh size and writes the matrix, with the
// host context, to results/BENCH_scale.json.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spcoh/internal/protocol"
	"spcoh/internal/sim"
	"spcoh/internal/workload"
)

// scaleMeshes is the mesh axis: the paper's 4×4 plus the two scaled
// configurations.
var scaleMeshes = []int{16, 64, 256}

// scaleCell is one timed mesh configuration.
type scaleCell struct {
	Nodes int    `json:"nodes"`
	Mesh  string `json:"mesh"` // "4x4" etc, for human readers

	SimCycles    uint64  `json:"sim_cycles"`
	Events       uint64  `json:"events"`
	WallNanos    int64   `json:"wall_nanos"` // best of the timed runs
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

// scaleHost records the host the matrix was measured on; a throughput
// figure means nothing without it.
type scaleHost struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// scaleFile is results/BENCH_scale.json. Unlike BENCH_core this is a
// plain snapshot, overwritten per invocation: the scaling shape is a
// property of the engine + host pair, not a trend to gate on.
type scaleFile struct {
	When  string      `json:"when,omitempty"`
	Bench string      `json:"bench"`
	Runs  int         `json:"runs"`
	Scale float64     `json:"scale"`
	Seed  int64       `json:"seed"`
	Host  scaleHost   `json:"host"`
	Cells []scaleCell `json:"cells"`
}

// measureScaleCell times runs repetitions of one mesh cell and keeps the
// fastest, mirroring measureCell's best-of policy.
func measureScaleCell(bench string, nodes, runs int, scale float64, seed int64) (scaleCell, error) {
	p, err := workload.ByName(bench)
	if err != nil {
		return scaleCell{}, err
	}
	m, err := protocol.ConfigFor(nodes)
	if err != nil {
		return scaleCell{}, fmt.Errorf("scale-bench: %w", err)
	}
	prog := p.Build(nodes, scale, seed)
	side := 1
	for side*side < nodes {
		side++
	}
	cell := scaleCell{Nodes: nodes, Mesh: fmt.Sprintf("%dx%d", side, side)}
	for i := 0; i < runs; i++ {
		opt := sim.DefaultOptions()
		opt.Machine = m
		start := time.Now()
		res, err := sim.Run(prog, opt)
		wall := time.Since(start)
		if err != nil {
			return scaleCell{}, fmt.Errorf("scale-bench %s n%d: %w", bench, nodes, err)
		}
		if cell.WallNanos == 0 || wall.Nanoseconds() < cell.WallNanos {
			cell.WallNanos = wall.Nanoseconds()
			cell.SimCycles = uint64(res.Cycles)
			cell.Events = res.Events
		}
	}
	cell.CyclesPerSec = float64(cell.SimCycles) / (float64(cell.WallNanos) / 1e9)
	return cell, nil
}

func runScaleBench(out, bench string, runs int, scale float64, seed int64) error {
	if runs < 1 {
		runs = 1
	}
	file := &scaleFile{
		Bench: bench,
		Runs:  runs,
		Scale: scale,
		Seed:  seed,
		Host: scaleHost{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
	for _, nodes := range scaleMeshes {
		cell, err := measureScaleCell(bench, nodes, runs, scale, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scale-bench: %-14s %5s  %12d cycles  %8.1fms  %12.0f cycles/s\n",
			bench, cell.Mesh, cell.SimCycles, float64(cell.WallNanos)/1e6, cell.CyclesPerSec)
		file.Cells = append(file.Cells, cell)
	}
	file.When = time.Now().UTC().Format(time.RFC3339)

	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}
