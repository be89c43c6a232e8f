// Package runcfg holds the one run-sizing configuration shared by every
// layer that names a simulation cell: the experiments runner, the sweep
// matrix and the CLIs. It exists to end the triplicated plumbing where
// sim.Options, experiments.Config and sweep.Job each declared their own
// threads/scale/seed/metrics-epoch fields and hand-copied between them —
// now the one struct flows through, converted only at the sim.Options
// edge (whose MetricsEpoch is an event.Time, not a uint64).
//
// The JSON field names and order are load-bearing: sweep.Job embeds
// RunConfig and hashes its canonical JSON as the artifact address, so
// renaming or reordering fields would orphan every previously-recorded
// sweep artifact. Append new fields with omitempty; never reorder.
package runcfg

import "fmt"

// RunConfig sizes one simulation run.
type RunConfig struct {
	// Threads is the workload thread count (= the machine's node count).
	Threads int `json:"threads"`
	// Scale multiplies each workload's base iteration count.
	Scale float64 `json:"scale"`
	// Seed is the workload build seed.
	Seed int64 `json:"seed"`

	// MetricsEpoch, when non-zero, enables the run-time metrics collector
	// with this sampling epoch (cycles); the sim.Result then carries a
	// phase-resolved time-series. omitempty keeps canonical encodings of
	// metrics-free configs identical to pre-metrics recordings.
	MetricsEpoch uint64 `json:"metrics_epoch,omitempty"`
}

// Validate rejects configurations no layer can run.
func (c RunConfig) Validate() error {
	if c.Threads < 1 {
		return fmt.Errorf("runcfg: threads %d < 1", c.Threads)
	}
	if c.Scale <= 0 {
		return fmt.Errorf("runcfg: scale %g <= 0", c.Scale)
	}
	return nil
}
