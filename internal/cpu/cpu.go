// Package cpu models the processor cores: 2-issue in-order engines (paper
// Table 4) that execute workload op streams against a coherent memory port
// and a synchronization runtime, exposing each synchronization point to the
// hardware predictor as they cross it (paper §4.1).
package cpu

import (
	"fmt"

	"spcoh/internal/arch"
	"spcoh/internal/detutil"
	"spcoh/internal/event"
	"spcoh/internal/predictor"
	"spcoh/internal/workload"
)

// MemPort is the per-core view of the memory system (the tile's cache
// controller).
type MemPort interface {
	Access(pc uint64, addr arch.Addr, write bool, done func())
	OnSync(kind predictor.SyncKind, staticID uint64)
}

// SyncRuntime provides barrier and lock coordination between cores.
type SyncRuntime interface {
	Barrier(core int, id uint64, resume func())
	Lock(core int, id uint64, resume func())
	Unlock(core int, id uint64)
}

// Stats counts core activity.
type Stats struct {
	MemOps     uint64
	ComputeCyc uint64
	Barriers   uint64
	Locks      uint64
	FinishTime event.Time
}

// Core executes one thread's op stream.
type Core struct {
	ID         int
	IssueWidth int

	sim  *event.Sim
	port MemPort
	rt   SyncRuntime
	ops  []workload.Op
	ip   int

	finished bool
	onFinish func()
	stats    Stats

	// stepFn is the core's step bound once at construction: the execution
	// loop passes it as the completion callback of every memory access and
	// compute delay, instead of materializing a fresh method value (one
	// heap allocation) per op.
	stepFn func()
}

// New builds a core over its op stream. onFinish fires once at OpEnd.
func New(id int, sim *event.Sim, port MemPort, rt SyncRuntime, ops []workload.Op, issueWidth int, onFinish func()) *Core {
	if issueWidth < 1 {
		issueWidth = 1
	}
	c := &Core{ID: id, IssueWidth: issueWidth, sim: sim, port: port, rt: rt, ops: ops, onFinish: onFinish}
	c.stepFn = c.step
	return c
}

// Stats returns a snapshot of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// Start begins execution at the current simulator time.
func (c *Core) Start() { c.stepFn() }

// coreStep is the pre-bound form of (*Core).step for event.AfterFn: the
// compute-op path schedules it with the core itself as argument,
// allocation-free.
//
//spcoh:noalloc
func coreStep(a any) { a.(*Core).step() }

// step executes the next op; every path reschedules asynchronously via the
// event queue or a completion callback, so there is no unbounded recursion.
func (c *Core) step() {
	if c.ip >= len(c.ops) {
		c.finish()
		return
	}
	op := c.ops[c.ip]
	c.ip++
	switch op.Kind {
	case workload.OpCompute:
		c.stats.ComputeCyc += uint64(op.N)
		d := event.Time(int(op.N) / c.IssueWidth)
		if d < 1 {
			d = 1
		}
		c.sim.AfterFn(d, coreStep, c)

	case workload.OpRead, workload.OpWrite:
		c.stats.MemOps++
		c.port.Access(op.PC, op.Addr, op.Kind == workload.OpWrite, c.stepFn)

	case workload.OpBarrier:
		c.stats.Barriers++
		// Block until released; crossing the barrier is the sync-point
		// exposed to the predictor. Barrier arrival traffic itself is not
		// modeled: with the scaled-down epochs of the synthetic workloads
		// a single arrival write would be a far larger fraction of an
		// epoch's communication than in the paper's full-size runs (see
		// DESIGN.md §1).
		id := op.Sync
		c.rt.Barrier(c.ID, id, func() {
			c.port.OnSync(predictor.SyncBarrier, id)
			c.stepFn()
		})

	case workload.OpLock:
		c.stats.Locks++
		op := op
		// The runtime keys locks by their line address; the sync-point
		// static ID (op.Sync) is a separate notion exposed to predictors.
		c.rt.Lock(c.ID, uint64(op.Addr), func() {
			// Acquired: expose the sync-point first (the SP-table update
			// happens "just after the lock is acquired", §4.3), then
			// perform the atomic RMW on the lock line — a migratory,
			// communicating miss coming from the previous holder.
			c.port.OnSync(predictor.SyncLock, op.Sync)
			c.port.Access(0, op.Addr, true, c.stepFn)
		})

	case workload.OpUnlock:
		op := op
		c.port.Access(0, op.Addr, true, func() {
			c.port.OnSync(predictor.SyncUnlock, op.Sync)
			c.rt.Unlock(c.ID, uint64(op.Addr))
			c.stepFn()
		})

	case workload.OpEnd:
		c.finish()

	default:
		panic(fmt.Sprintf("cpu: core %d: bad op kind %v", c.ID, op.Kind))
	}
}

func (c *Core) finish() {
	if c.finished {
		return
	}
	c.finished = true
	c.stats.FinishTime = c.sim.Now()
	if c.onFinish != nil {
		c.onFinish()
	}
}

// Coordinator is the default SyncRuntime: sense-reversing barriers over all
// cores and FIFO locks.
type Coordinator struct {
	sim *event.Sim
	n   int

	barWaiting map[uint64][]func()
	locks      map[uint64]*lockState
}

type lockState struct {
	held  bool
	queue []func()
}

// NewCoordinator builds a runtime for n cores.
func NewCoordinator(sim *event.Sim, n int) *Coordinator {
	return &Coordinator{sim: sim, n: n, barWaiting: make(map[uint64][]func()), locks: make(map[uint64]*lockState)}
}

// Barrier implements SyncRuntime. All n cores must arrive; the last arrival
// releases everyone on the next cycle.
func (co *Coordinator) Barrier(_ int, id uint64, resume func()) {
	w := append(co.barWaiting[id], resume)
	if len(w) == co.n {
		delete(co.barWaiting, id)
		for _, r := range w {
			co.sim.After(1, r)
		}
		return
	}
	co.barWaiting[id] = w
}

// Lock implements SyncRuntime (FIFO grant order).
func (co *Coordinator) Lock(_ int, id uint64, resume func()) {
	st, ok := co.locks[id]
	if !ok {
		st = &lockState{}
		co.locks[id] = st
	}
	if !st.held {
		st.held = true
		co.sim.After(1, resume)
		return
	}
	st.queue = append(st.queue, resume)
}

// Unlock implements SyncRuntime.
func (co *Coordinator) Unlock(_ int, id uint64) {
	st := co.locks[id]
	if st == nil || !st.held {
		panic("cpu: unlock of a lock not held")
	}
	if len(st.queue) > 0 {
		next := st.queue[0]
		st.queue = st.queue[1:]
		co.sim.After(1, next)
		return
	}
	st.held = false
}

// Pending reports unreleased barriers and queued lock waiters (deadlock
// diagnosis).
func (co *Coordinator) Pending() string {
	s := ""
	for _, id := range detutil.SortedKeys(co.barWaiting) {
		s += fmt.Sprintf("barrier %d: %d/%d arrived; ", id, len(co.barWaiting[id]), co.n)
	}
	for _, id := range detutil.SortedKeys(co.locks) {
		if st := co.locks[id]; len(st.queue) > 0 {
			s += fmt.Sprintf("lock %d: %d queued; ", id, len(st.queue))
		}
	}
	return s
}
