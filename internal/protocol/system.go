package protocol

import (
	"fmt"
	"sort"

	"spcoh/internal/arch"
	"spcoh/internal/cache"
	"spcoh/internal/event"
	"spcoh/internal/noc"
	"spcoh/internal/predictor"
)

// Config sizes the coherent memory system (defaults = paper Table 4).
type Config struct {
	Nodes int

	L1 cache.Config
	L2 cache.Config

	L1Latency     event.Time // load-to-use
	L2TagLatency  event.Time
	L2DataLatency event.Time
	DirLatency    event.Time // directory slice access
	MemLatency    event.Time // main memory round trip from the home tile

	// PredInvWindow bounds how long a predicted invalidation that found
	// nothing to invalidate can poison a subsequent same-line miss (the race
	// in Node.recentPredInv); entries past the window are evicted. Zero
	// selects the default of 4*MemLatency.
	PredInvWindow event.Time

	NoC noc.Config
}

// DefaultConfig returns the paper's Table 4 machine.
func DefaultConfig() Config {
	return Config{
		Nodes:         16,
		L1:            cache.Config{Bytes: 16 << 10, Ways: 1},
		L2:            cache.Config{Bytes: 1 << 20, Ways: 8},
		L1Latency:     2,
		L2TagLatency:  2,
		L2DataLatency: 6,
		DirLatency:    16,
		MemLatency:    150,
		NoC:           noc.DefaultConfig(),
	}
}

// ConfigFor returns the paper's machine scaled to a different core count.
// Supported sizes are perfect squares up to arch.MaxNodes = 256 — a 16x16
// mesh (the mesh stays square); cache and latency parameters are
// unchanged.
func ConfigFor(nodes int) (Config, error) {
	side := 0
	for s := 1; s*s <= nodes; s++ {
		if s*s == nodes {
			side = s
		}
	}
	if side == 0 || nodes > arch.MaxNodes {
		return Config{}, fmt.Errorf("protocol: unsupported node count %d (need a perfect square <= %d)", nodes, arch.MaxNodes)
	}
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.NoC.Width, cfg.NoC.Height = side, side
	return cfg, nil
}

// L2HitLatency is the total L2 access time (tag + data).
func (c Config) L2HitLatency() event.Time { return c.L2TagLatency + c.L2DataLatency }

// System is a full coherent CMP: one Node (core-side controller) and one
// DirSlice (directory home slice) per tile, connected by the mesh.
type System struct {
	Cfg   Config
	Sim   *event.Sim
	Net   *noc.Network
	Nodes []*Node
	Dirs  []*DirSlice

	// obs, when set, feeds the run-time metrics layer. Nil — the default —
	// costs one branch per message/miss/sync.
	obs *Obs

	// Freelists for the pooled scheduling records of the hot paths: every
	// in-flight message, delayed send, miss issue, directory access and
	// memory fetch rides a reused record through the event queue instead of
	// a fresh closure (DESIGN.md §11). The simulation is single-threaded,
	// so plain slice stacks suffice.
	msgPool  []*delivery
	missPool []*missIssue
	getPool  []*dirGet
	memPool  []*memFetch

	// homeMask is Cfg.Nodes-1 when the node count is a power of two: the
	// Home interleaving then reduces to a mask, off the hot path's divide.
	homeMask uint64
}

// delivery carries one in-flight message through the scheduler. A record is
// acquired at send time, optionally parked through a source-side delay
// (sendAfter), injected into the NoC, and released at dispatch.
//
//spcoh:pooled
type delivery struct {
	s    *System
	m    Msg
	sent event.Time // injection time, for the metrics observer
}

func (s *System) getDelivery(m Msg) *delivery {
	if k := len(s.msgPool); k > 0 {
		d := s.msgPool[k-1]
		s.msgPool = s.msgPool[:k-1]
		d.m = m
		return d
	}
	return &delivery{s: s, m: m}
}

// deliverMsg fires at NoC arrival: it frees the record first (Msg is all
// scalars, and dispatch may recursively send) and then dispatches.
//
//spcoh:noalloc
func deliverMsg(a any) {
	d := a.(*delivery)
	s, m, sent := d.s, d.m, d.sent
	s.msgPool = append(s.msgPool, d)
	if s.obs != nil && s.obs.Message != nil {
		s.obs.Message(m.Kind, s.Sim.Now()-sent)
	}
	s.dispatch(m)
}

// transmitMsg fires when a sendAfter source-side delay elapses.
//
//spcoh:noalloc
func transmitMsg(a any) {
	d := a.(*delivery)
	d.s.transmit(d)
}

// Obs carries the metrics hooks of the directory protocol. Every field may
// be nil independently; hooks fire synchronously inside the simulation at
// the cycle the observed fact becomes true.
type Obs struct {
	// Message fires when a coherence message is delivered, with its
	// network latency (injection to delivery).
	Message func(kind MsgKind, lat event.Time)
	// Miss fires when a finished L2 miss is finalized. lat is the
	// CPU-visible latency; predicted/correct describe the prediction
	// attempt (correct is meaningful only for predicted communicating
	// misses, mirroring NodeStats.PredCorrect).
	Miss func(node arch.NodeID, kind predictor.MissKind, lat event.Time, comm, predicted, correct bool)
	// Sync fires when a node crosses a synchronization point.
	Sync func(node arch.NodeID, kind predictor.SyncKind)
}

// SetObserver attaches (or, with nil, detaches) the metrics hooks.
func (s *System) SetObserver(o *Obs) { s.obs = o }

// New assembles a system. preds supplies one predictor per node; nil means
// the baseline directory protocol everywhere.
func New(sim *event.Sim, cfg Config, preds []predictor.Predictor) *System {
	if cfg.Nodes != cfg.NoC.Nodes() {
		panic("protocol: Config.Nodes must match the mesh size")
	}
	s := &System{Cfg: cfg, Sim: sim, Net: noc.New(sim, cfg.NoC)}
	if cfg.Nodes&(cfg.Nodes-1) == 0 && cfg.Nodes > 1 {
		s.homeMask = uint64(cfg.Nodes - 1)
	}
	s.Nodes = make([]*Node, cfg.Nodes)
	s.Dirs = make([]*DirSlice, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		var p predictor.Predictor = predictor.Null{}
		if preds != nil && preds[i] != nil {
			p = preds[i]
		}
		s.Nodes[i] = newNode(s, arch.NodeID(i), p)
		s.Dirs[i] = newDirSlice(s, arch.NodeID(i))
	}
	return s
}

// Home returns the tile whose directory slice owns a line
// (line-interleaved, as in the paper's distributed directory). Power-of-two
// meshes — every builtin machine — take the mask path: Home runs once or
// more per message, and the integer divide showed up in big-mesh profiles.
//
//spcoh:noalloc
func (s *System) Home(l arch.LineAddr) arch.NodeID {
	if s.homeMask != 0 {
		return arch.NodeID(uint64(l) & s.homeMask)
	}
	return arch.NodeID(uint64(l) % uint64(s.Cfg.Nodes))
}

// send routes a message over the NoC and dispatches it on arrival.
//
//spcoh:noalloc
func (s *System) send(m Msg) {
	s.transmit(s.getDelivery(m)) //spvet:allow noalloc -- inlined getDelivery: cold-path freelist refill
}

//spcoh:noalloc
func (s *System) transmit(d *delivery) {
	d.sent = s.Sim.Now()
	s.Net.SendFn(d.m.Src, d.m.Dst, d.m.Kind.Bytes(), deliverMsg, d)
}

// sendAfter routes a message after a local processing delay at the source.
//
//spcoh:noalloc
func (s *System) sendAfter(d event.Time, m Msg) {
	s.Sim.AfterFn(d, transmitMsg, s.getDelivery(m)) //spvet:allow noalloc -- inlined getDelivery: cold-path freelist refill
}

func (s *System) dispatch(m Msg) {
	switch m.Kind {
	case MsgGetS, MsgGetM, MsgPutS, MsgPutE, MsgPutM, MsgUnblock, MsgDirUpd, MsgWriteback, MsgGetRetry:
		s.Dirs[m.Dst].handle(m)
	default:
		s.Nodes[m.Dst].handle(m)
	}
}

// Stats aggregates per-node statistics across the system.
func (s *System) Stats() NodeStats {
	var total NodeStats
	for _, n := range s.Nodes {
		total.merge(&n.stats)
	}
	return total
}

// NetStats returns the interconnect statistics.
func (s *System) NetStats() noc.Stats { return s.Net.Stats() }

// CheckCoherence validates the directory/cache invariants at quiescence
// (no in-flight transactions): every directory entry's view matches the
// corresponding L2 states. It returns hard violations (genuine coherence
// breaks) and soft ones (stale registrations left by benign predicted-
// invalidation races; see dir.go). Baseline (non-predicting) runs must
// produce neither.
func (s *System) CheckCoherence() (hard, soft []string) {
	// Two passes, each linear in what it scans. Pass 1 (holder side) sweeps
	// every L2 array once: a valid copy must be registered by its home slice
	// in a compatible state — one directory lookup per resident line. Pass 2
	// (dir side) walks the directory entries probing only the registered
	// holders. The old formulation probed every node for every directory
	// line (lines x nodes x associativity), which dominated short runs.
	var hardV, softV []dirViol
	for _, n := range s.Nodes {
		id := n.self
		n.l2.ForEachValid(func(l arch.LineAddr, st cache.State) {
			e, ok := s.Dirs[s.Home(l)].lines[l]
			switch {
			case !ok || e.state == dirU:
				hardV = append(hardV, dirViol{l, id,
					fmt.Sprintf("line %#x: dir U but node %d has %v", uint64(l), id, st)})
			case e.state == dirE:
				if id != e.owner {
					hardV = append(hardV, dirViol{l, id,
						fmt.Sprintf("line %#x: dir E (owner %d) but node %d has %v", uint64(l), e.owner, id, st)})
				} else if st == cache.Shared {
					hardV = append(hardV, dirViol{l, id,
						fmt.Sprintf("line %#x: dir E owner %d has %v", uint64(l), id, st)})
				}
			case e.state == dirS:
				if !e.sharers.Contains(id) {
					hardV = append(hardV, dirViol{l, id,
						fmt.Sprintf("line %#x: dir S %v but node %d has %v", uint64(l), e.sharers, id, st)})
				} else if st == cache.Modified || st == cache.Exclusive {
					hardV = append(hardV, dirViol{l, id,
						fmt.Sprintf("line %#x: dir S sharer %d has %v", uint64(l), id, st)})
				}
			}
		})
	}
	for _, d := range s.Dirs {
		d.checkDirSide(&hardV, &softV)
	}
	// Violations are collected from unordered sweeps; a canonical
	// (line, node) sort keeps the report deterministic.
	return renderViols(hardV), renderViols(softV)
}

// dirViol is one coherence violation, keyed for deterministic ordering.
// node is arch.None for line-level (per-entry) violations.
type dirViol struct {
	line arch.LineAddr
	node arch.NodeID
	msg  string
}

func renderViols(v []dirViol) []string {
	if len(v) == 0 {
		return nil
	}
	sort.Slice(v, func(i, j int) bool {
		if v[i].line != v[j].line {
			return v[i].line < v[j].line
		}
		if v[i].node != v[j].node {
			return v[i].node < v[j].node
		}
		return v[i].msg < v[j].msg
	})
	out := make([]string, len(v))
	for i := range v {
		out[i] = v[i].msg
	}
	return out
}
