package protocol

import (
	"math/rand"
	"testing"

	"spcoh/internal/arch"
	"spcoh/internal/cache"
	"spcoh/internal/event"
	"spcoh/internal/noc"
	"spcoh/internal/predictor"
)

// testConfig returns a small 2x2 machine with tiny caches so evictions and
// conflict behaviour are exercised quickly.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.NoC = noc.Config{Width: 2, Height: 2, RouterDelay: 2, LinkDelay: 1, FlitBytes: 16, HeaderFlits: 1}
	cfg.L1 = cache.Config{Bytes: 4 * arch.LineSize, Ways: 1}
	cfg.L2 = cache.Config{Bytes: 32 * arch.LineSize, Ways: 2}
	return cfg
}

// fixedPred always predicts the same set.
type fixedPred struct{ set arch.SharerSet }

func (f *fixedPred) Name() string { return "fixed" }
func (f *fixedPred) Predict(predictor.Miss) (arch.SharerSet, predictor.Tag) {
	if f.set.Empty() {
		return arch.EmptySet, predictor.TagNone
	}
	return f.set, predictor.TagOther
}
func (f *fixedPred) Train(predictor.Miss, predictor.Outcome) {}
func (f *fixedPred) OnSync(predictor.SyncEvent)              {}
func (f *fixedPred) StorageBits() int                        { return 0 }

// chaosPred predicts a random subset on every miss — an adversarial
// predictor used to stress every race path in the protocol.
type chaosPred struct {
	rng   *rand.Rand
	nodes int
}

func (c *chaosPred) Name() string { return "chaos" }
func (c *chaosPred) Predict(predictor.Miss) (arch.SharerSet, predictor.Tag) {
	if c.rng.Intn(4) == 0 {
		return arch.EmptySet, predictor.TagNone
	}
	var s arch.SharerSet
	for i := 0; i < c.nodes; i++ {
		if c.rng.Intn(3) == 0 {
			s = s.Add(arch.NodeID(i))
		}
	}
	return s, predictor.TagOther
}
func (c *chaosPred) Train(predictor.Miss, predictor.Outcome) {}
func (c *chaosPred) OnSync(predictor.SyncEvent)              {}
func (c *chaosPred) StorageBits() int                        { return 0 }

// newTestSystem builds a system over a fresh simulator.
func newTestSystem(t *testing.T, cfg Config, preds []predictor.Predictor) (*event.Sim, *System) {
	t.Helper()
	sim := event.New()
	return sim, New(sim, cfg, preds)
}

// access runs a single access to completion and returns its latency.
func access(t *testing.T, sim *event.Sim, n *Node, addr arch.Addr, write bool) event.Time {
	t.Helper()
	start := sim.Now()
	var end event.Time
	done := false
	n.Access(0x400, addr, write, func() { done = true; end = sim.Now() })
	sim.Run()
	if !done {
		t.Fatalf("access to %#x (write=%v) never completed", uint64(addr), write)
	}
	return end - start
}

// quiesce drains the simulator and checks invariants.
func quiesce(t *testing.T, sim *event.Sim, sys *System, allowSoft bool) {
	t.Helper()
	sim.Run()
	for _, n := range sys.Nodes {
		if n.Outstanding() != 0 {
			t.Fatalf("node %d has %d outstanding transactions at quiescence", n.ID(), n.Outstanding())
		}
	}
	hard, soft := sys.CheckCoherence()
	if len(hard) > 0 {
		t.Fatalf("hard coherence violations: %v", hard)
	}
	if !allowSoft && len(soft) > 0 {
		t.Fatalf("soft coherence violations without prediction: %v", soft)
	}
}

func TestColdReadFromMemory(t *testing.T) {
	sim, sys := newTestSystem(t, testConfig(), nil)
	lat := access(t, sim, sys.Nodes[0], 0x1000, false)
	if lat < event.Time(sys.Cfg.MemLatency) {
		t.Fatalf("cold miss latency %d < memory latency %d", lat, sys.Cfg.MemLatency)
	}
	st := sys.Stats()
	if st.Misses != 1 || st.ReadMisses != 1 || st.NonCommunicating != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Fill should be Exclusive (sole copy).
	if l := sys.Nodes[0].L2().Peek(arch.Addr(0x1000).Line()); l == nil || l.State != cache.Exclusive {
		t.Fatalf("fill state = %v", l)
	}
	quiesce(t, sim, sys, false)
}

func TestL1AndL2Hits(t *testing.T) {
	sim, sys := newTestSystem(t, testConfig(), nil)
	access(t, sim, sys.Nodes[0], 0x1000, false)
	lat := access(t, sim, sys.Nodes[0], 0x1000, false)
	if lat != sys.Cfg.L1Latency {
		t.Fatalf("L1 hit latency = %d, want %d", lat, sys.Cfg.L1Latency)
	}
	st := sys.Stats()
	if st.L1Hits != 1 {
		t.Fatalf("L1 hits = %d", st.L1Hits)
	}
}

func TestCacheToCacheRead(t *testing.T) {
	sim, sys := newTestSystem(t, testConfig(), nil)
	access(t, sim, sys.Nodes[1], 0x2000, true) // node 1 takes M
	lat := access(t, sim, sys.Nodes[0], 0x2000, false)
	if lat >= sys.Cfg.MemLatency {
		t.Fatalf("cache-to-cache read took %d, should beat memory (%d)", lat, sys.Cfg.MemLatency)
	}
	st := sys.Stats()
	if st.Communicating != 1 {
		t.Fatalf("communicating = %d, want 1", st.Communicating)
	}
	// Post state: node 1 downgraded to S, node 0 holds F.
	line := arch.Addr(0x2000).Line()
	if l := sys.Nodes[1].L2().Peek(line); l == nil || l.State != cache.Shared {
		t.Fatalf("node1 state = %v, want S", l)
	}
	if l := sys.Nodes[0].L2().Peek(line); l == nil || l.State != cache.Forward {
		t.Fatalf("node0 state = %v, want F", l)
	}
	quiesce(t, sim, sys, false)
}

func TestWriteInvalidatesSharers(t *testing.T) {
	sim, sys := newTestSystem(t, testConfig(), nil)
	for i := 0; i < 3; i++ {
		access(t, sim, sys.Nodes[i], 0x3000, false)
	}
	access(t, sim, sys.Nodes[3], 0x3000, true)
	line := arch.Addr(0x3000).Line()
	for i := 0; i < 3; i++ {
		if l := sys.Nodes[i].L2().Peek(line); l != nil {
			t.Fatalf("node %d still holds %v after invalidation", i, l.State)
		}
	}
	if l := sys.Nodes[3].L2().Peek(line); l == nil || l.State != cache.Modified {
		t.Fatalf("writer state = %v, want M", l)
	}
	quiesce(t, sim, sys, false)
}

func TestUpgradeMiss(t *testing.T) {
	sim, sys := newTestSystem(t, testConfig(), nil)
	access(t, sim, sys.Nodes[0], 0x4000, false)
	access(t, sim, sys.Nodes[1], 0x4000, false) // both share now
	access(t, sim, sys.Nodes[0], 0x4000, true)  // upgrade
	st := sys.Stats()
	if st.UpgradeMisses != 1 {
		t.Fatalf("upgrade misses = %d; stats %+v", st.UpgradeMisses, st)
	}
	line := arch.Addr(0x4000).Line()
	if l := sys.Nodes[0].L2().Peek(line); l == nil || l.State != cache.Modified {
		t.Fatalf("upgrader state = %v, want M", l)
	}
	if l := sys.Nodes[1].L2().Peek(line); l != nil {
		t.Fatalf("node1 should be invalidated, has %v", l.State)
	}
	quiesce(t, sim, sys, false)
}

func TestSilentEToMUpgrade(t *testing.T) {
	sim, sys := newTestSystem(t, testConfig(), nil)
	access(t, sim, sys.Nodes[0], 0x5000, false) // E fill
	lat := access(t, sim, sys.Nodes[0], 0x5000, true)
	if lat > sys.Cfg.L1Latency+sys.Cfg.L2HitLatency() {
		t.Fatalf("E->M write should be an L2 hit, took %d", lat)
	}
	st := sys.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (silent upgrade)", st.Misses)
	}
}

func TestCorrectPredictionAvoidsIndirection(t *testing.T) {
	// Baseline: read owned by a remote cache via the directory.
	cfgA := testConfig()
	simA, sysA := newTestSystem(t, cfgA, nil)
	access(t, simA, sysA.Nodes[3], 0x6000, true)
	baseLat := access(t, simA, sysA.Nodes[0], 0x6000, false)

	// Predicted: node 0 predicts node 3.
	preds := make([]predictor.Predictor, 4)
	preds[0] = &fixedPred{set: arch.SetOf(3)}
	simB, sysB := newTestSystem(t, testConfig(), preds)
	access(t, simB, sysB.Nodes[3], 0x6000, true)
	predLat := access(t, simB, sysB.Nodes[0], 0x6000, false)

	if predLat >= baseLat {
		t.Fatalf("predicted read latency %d should beat directory %d", predLat, baseLat)
	}
	st := sysB.Stats()
	if st.Predicted != 1 || st.PredCorrect != 1 {
		t.Fatalf("prediction stats = %+v", st)
	}
	quiesce(t, simB, sysB, true)
	hard, _ := sysB.CheckCoherence()
	if len(hard) != 0 {
		t.Fatalf("violations: %v", hard)
	}
}

func TestMispredictionFallsBackToDirectory(t *testing.T) {
	preds := make([]predictor.Predictor, 4)
	preds[0] = &fixedPred{set: arch.SetOf(2)} // wrong: owner is 3
	sim, sys := newTestSystem(t, testConfig(), preds)
	access(t, sim, sys.Nodes[3], 0x7000, true)
	access(t, sim, sys.Nodes[0], 0x7000, false)
	st := sys.Stats()
	if st.PredWrong != 1 || st.PredCorrect != 0 {
		t.Fatalf("prediction stats = %+v", st)
	}
	if st.Nacks == 0 {
		t.Fatal("mispredicted node should have Nacked")
	}
	quiesce(t, sim, sys, true)
}

func TestPredictedWriteWithSharers(t *testing.T) {
	preds := make([]predictor.Predictor, 4)
	preds[3] = &fixedPred{set: arch.SetOf(0, 1, 2)}
	sim, sys := newTestSystem(t, testConfig(), preds)
	for i := 0; i < 3; i++ {
		access(t, sim, sys.Nodes[i], 0x8000, false)
	}
	access(t, sim, sys.Nodes[3], 0x8000, true)
	st := sys.Stats()
	if st.PredCorrect != 1 {
		t.Fatalf("write prediction should be sufficient: %+v", st)
	}
	line := arch.Addr(0x8000).Line()
	for i := 0; i < 3; i++ {
		if l := sys.Nodes[i].L2().Peek(line); l != nil {
			t.Fatalf("node %d not invalidated", i)
		}
	}
	quiesce(t, sim, sys, true)
}

func TestPredictionOnNonCommunicatingMiss(t *testing.T) {
	preds := make([]predictor.Predictor, 4)
	preds[0] = &fixedPred{set: arch.SetOf(1, 2)}
	sim, sys := newTestSystem(t, testConfig(), preds)
	access(t, sim, sys.Nodes[0], 0x9000, false) // nobody has it: memory
	st := sys.Stats()
	if st.PredOnNonComm != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PredBytesNonComm == 0 {
		t.Fatal("wasted prediction bandwidth should be accounted")
	}
	quiesce(t, sim, sys, true)
}

func TestEvictionWritebackAndRefill(t *testing.T) {
	cfg := testConfig()
	cfg.L2 = cache.Config{Bytes: 4 * arch.LineSize, Ways: 1} // 4 lines
	sim, sys := newTestSystem(t, cfg, nil)
	// Write lines that collide and force dirty evictions.
	for i := 0; i < 12; i++ {
		access(t, sim, sys.Nodes[0], arch.Addr(i*4*arch.LineSize), true)
	}
	// Re-access the first line (must refetch from memory after writeback).
	access(t, sim, sys.Nodes[0], 0, false)
	quiesce(t, sim, sys, false)
	if sys.Nodes[0].L2().Stats().Writebacks == 0 {
		t.Fatal("expected dirty writebacks")
	}
}

// driver issues a per-node random workload, one access at a time per node.
func driver(sim *event.Sim, sys *System, seed int64, opsPerNode, addrPool int, completed *int) {
	for id := range sys.Nodes {
		n := sys.Nodes[id]
		rng := rand.New(rand.NewSource(seed + int64(id)))
		var next func(i int)
		next = func(i int) {
			if i >= opsPerNode {
				return
			}
			addr := arch.Addr(rng.Intn(addrPool)) * arch.LineSize
			write := rng.Intn(3) == 0
			n.Access(uint64(0x400+rng.Intn(32)), addr, write, func() {
				*completed++
				// Small think time to interleave nodes.
				sim.After(event.Time(rng.Intn(5)), func() { next(i + 1) })
			})
		}
		next(0)
	}
}

func TestStressBaseline(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		sim, sys := newTestSystem(t, testConfig(), nil)
		completed := 0
		driver(sim, sys, seed, 300, 24, &completed)
		sim.Run()
		if completed != 4*300 {
			t.Fatalf("seed %d: %d/%d accesses completed", seed, completed, 4*300)
		}
		quiesce(t, sim, sys, false)
	}
}

func TestStressChaosPrediction(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		preds := make([]predictor.Predictor, 4)
		for i := range preds {
			preds[i] = &chaosPred{rng: rand.New(rand.NewSource(seed*100 + int64(i))), nodes: 4}
		}
		sim, sys := newTestSystem(t, testConfig(), preds)
		completed := 0
		driver(sim, sys, seed, 300, 16, &completed)
		sim.Run()
		if completed != 4*300 {
			t.Fatalf("seed %d: %d/%d accesses completed", seed, completed, 4*300)
		}
		quiesce(t, sim, sys, true)
	}
}

func TestStressTinyCachesChaos(t *testing.T) {
	// Tiny caches maximize evictions and writeback races.
	for seed := int64(0); seed < 8; seed++ {
		cfg := testConfig()
		cfg.L2 = cache.Config{Bytes: 4 * arch.LineSize, Ways: 2}
		cfg.L1 = cache.Config{Bytes: 2 * arch.LineSize, Ways: 1}
		preds := make([]predictor.Predictor, 4)
		for i := range preds {
			preds[i] = &chaosPred{rng: rand.New(rand.NewSource(seed*37 + int64(i))), nodes: 4}
		}
		sim, sys := newTestSystem(t, cfg, preds)
		completed := 0
		driver(sim, sys, seed, 250, 12, &completed)
		sim.Run()
		if completed != 4*250 {
			t.Fatalf("seed %d: %d/%d accesses completed", seed, completed, 4*250)
		}
		quiesce(t, sim, sys, true)
	}
}

func TestStress16Nodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2 = cache.Config{Bytes: 64 * arch.LineSize, Ways: 4}
	cfg.L1 = cache.Config{Bytes: 8 * arch.LineSize, Ways: 1}
	preds := make([]predictor.Predictor, 16)
	for i := range preds {
		preds[i] = &chaosPred{rng: rand.New(rand.NewSource(int64(i))), nodes: 16}
	}
	sim, sys := newTestSystem(t, cfg, preds)
	completed := 0
	driver(sim, sys, 42, 200, 48, &completed)
	sim.Run()
	if completed != 16*200 {
		t.Fatalf("%d/%d accesses completed", completed, 16*200)
	}
	quiesce(t, sim, sys, true)
}

func TestTable5AccountingPlausible(t *testing.T) {
	preds := make([]predictor.Predictor, 4)
	for i := range preds {
		preds[i] = &fixedPred{set: arch.SetOf(0, 1, 2, 3).Remove(arch.NodeID(i))}
	}
	sim, sys := newTestSystem(t, testConfig(), preds)
	completed := 0
	driver(sim, sys, 7, 200, 16, &completed)
	sim.Run()
	st := sys.Stats()
	if st.Predicted == 0 || st.PredTargets != st.Predicted*3 {
		t.Fatalf("predicted target accounting wrong: %+v", st)
	}
	if st.ActualTargets == 0 {
		t.Fatal("actual targets should be accounted")
	}
	quiesce(t, sim, sys, true)
}

// TestNodeStatsRatiosZeroDenominator: every derived mean is 0, not NaN,
// on a run with no misses of the relevant class.
func TestNodeStatsRatiosZeroDenominator(t *testing.T) {
	var s NodeStats
	s.CommLatencySum, s.NonCommLatencySum, s.PredTargets, s.ActualTargets = 5, 5, 5, 5
	for i, v := range []float64{s.AvgCommLatency(), s.AvgNonCommLatency(),
		s.AvgPredictedSet(), s.AvgActualSet()} {
		if v != 0 {
			t.Errorf("ratio %d: %v on a zero denominator, want 0", i, v)
		}
	}
	s.Communicating, s.NonCommunicating, s.Predicted, s.Misses = 2, 4, 5, 10
	if s.AvgCommLatency() != 2.5 || s.AvgNonCommLatency() != 1.25 ||
		s.AvgPredictedSet() != 1 || s.AvgActualSet() != 0.5 {
		t.Errorf("ratios %v %v %v %v", s.AvgCommLatency(), s.AvgNonCommLatency(),
			s.AvgPredictedSet(), s.AvgActualSet())
	}
}
