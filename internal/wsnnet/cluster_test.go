package wsnnet

import (
	"testing"

	"fttt/internal/geom"
	"fttt/internal/randx"
)

func TestFormClustersValidation(t *testing.T) {
	n, _ := New(testConfig(9))
	if _, err := n.FormClusters(0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := n.FormClusters(10); err == nil {
		t.Error("k>n should fail")
	}
	cl, err := n.FormClusters(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Heads) != 3 {
		t.Fatalf("got %d heads", len(cl.Heads))
	}
}

func TestClusterMembershipNearestHead(t *testing.T) {
	n, _ := New(testConfig(16))
	cl, _ := n.FormClusters(4)
	for i, h := range cl.HeadOf {
		di := n.cfg.Nodes[i].Dist(n.cfg.Nodes[h])
		for _, other := range cl.Heads {
			if d := n.cfg.Nodes[i].Dist(n.cfg.Nodes[other]); d < di-1e-9 {
				t.Fatalf("node %d assigned head %d but head %d is nearer", i, h, other)
			}
		}
	}
	// Every head is its own head.
	for _, h := range cl.Heads {
		if cl.HeadOf[h] != h {
			t.Errorf("head %d assigned to %d", h, cl.HeadOf[h])
		}
	}
}

func TestFormClustersDeterministic(t *testing.T) {
	n1, _ := New(testConfig(16))
	n2, _ := New(testConfig(16))
	c1, _ := n1.FormClusters(4)
	c2, _ := n2.FormClusters(4)
	for i := range c1.Heads {
		if c1.Heads[i] != c2.Heads[i] {
			t.Fatal("head selection not deterministic")
		}
	}
}

func TestClusteredRoundDelivers(t *testing.T) {
	n, _ := New(testConfig(16))
	cl, _ := n.FormClusters(4)
	g, stats := n.CollectRoundClustered(geom.Pt(50, 50), 5, cl, randx.New(1))
	if stats.Heard == 0 || stats.Delivered == 0 {
		t.Fatalf("nothing delivered: %+v", stats)
	}
	if g.NumReported() != stats.Delivered {
		t.Errorf("group reports %d != delivered %d", g.NumReported(), stats.Delivered)
	}
	if stats.EnergySpent <= 0 {
		t.Error("round should consume energy")
	}
}

func TestClusteredRoundReproducible(t *testing.T) {
	run := func() []bool {
		cfg := testConfig(16)
		cfg.HopLoss = 0.3
		n, _ := New(cfg)
		cl, _ := n.FormClusters(4)
		g, _ := n.CollectRoundClustered(geom.Pt(42, 58), 5, cl, randx.New(6))
		return g.Reported
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("clustered round not reproducible")
		}
	}
}

func TestClusteringSavesEnergyOverManyRounds(t *testing.T) {
	// With aggregation the clustered topology should spend less total
	// energy than per-report greedy forwarding (BS in a corner → long
	// multihop paths dominate).
	runDirect := func() float64 {
		n, _ := New(testConfig(25))
		rng := randx.New(2)
		for round := 0; round < 50; round++ {
			n.CollectRound(geom.Pt(60, 60), 5, rng.SplitN("r", round))
		}
		return total(n.Energy)
	}
	runClustered := func() float64 {
		n, _ := New(testConfig(25))
		cl, _ := n.FormClusters(5)
		rng := randx.New(2)
		for round := 0; round < 50; round++ {
			n.CollectRoundClustered(geom.Pt(60, 60), 5, cl, rng.SplitN("r", round))
		}
		return total(n.Energy)
	}
	d, c := runDirect(), runClustered()
	if c >= d {
		t.Errorf("clustered energy %.3e should be below direct %.3e", c, d)
	}
}

func TestClusteredAggregateLossDropsWholeCluster(t *testing.T) {
	// With certain hop loss on the head path, every member report dies
	// together. Force it with HopLoss close to 1.
	cfg := testConfig(16)
	cfg.HopLoss = 0.95
	n, _ := New(cfg)
	cl, _ := n.FormClusters(2)
	g, stats := n.CollectRoundClustered(geom.Pt(50, 50), 3, cl, randx.New(3))
	if g.NumReported() > stats.Delivered {
		t.Error("reported more than delivered")
	}
	if stats.LostHops == 0 {
		t.Error("expected heavy losses at 95% hop loss")
	}
}

func TestClockModelValidation(t *testing.T) {
	n, _ := New(testConfig(9))
	if _, err := NewClockModel(nil, 1, 1, 1e-5, randx.New(1)); err == nil {
		t.Error("nil network should fail")
	}
	if _, err := NewClockModel(n, -1, 1, 1e-5, randx.New(1)); err == nil {
		t.Error("negative offset should fail")
	}
	if _, err := NewClockModel(n, 0.01, 50, 5e-5, randx.New(1)); err != nil {
		t.Errorf("valid clock model rejected: %v", err)
	}
}

func TestClockDrift(t *testing.T) {
	n, _ := New(testConfig(9))
	cm, _ := NewClockModel(n, 0, 100, 1e-5, randx.New(2)) // start perfectly synced
	if cm.MaxAbsOffset() != 0 {
		t.Fatal("offsets should start at 0 with maxOffset=0")
	}
	cm.Advance(1000) // 1000 s at ≤100 ppm → ≤0.1 s
	worst := cm.MaxAbsOffset()
	if worst == 0 {
		t.Error("clocks should have drifted")
	}
	if worst > 0.1+1e-12 {
		t.Errorf("drift %.4f exceeds 100ppm bound", worst)
	}
}

func TestSynchronizeTightensOffsets(t *testing.T) {
	n, _ := New(testConfig(16))
	cm, _ := NewClockModel(n, 0.5, 50, 5e-5, randx.New(3))
	before := cm.MaxAbsOffset()
	if before < 0.01 {
		t.Fatalf("initial offsets too small to test: %v", before)
	}
	after := cm.Synchronize()
	if after >= before {
		t.Errorf("sync should tighten offsets: %.4f → %.4f", before, after)
	}
	// Post-sync residual scales with hop jitter and hop count (≤ ~4 hops
	// here): a millisecond-scale bound is generous.
	if after > 0.001 {
		t.Errorf("residual offset %.6f too large for 50µs hop jitter", after)
	}
}

func TestSyncThenDriftCycle(t *testing.T) {
	// The steady-state of periodic sync: offsets stay bounded by
	// residual + drift over the period.
	n, _ := New(testConfig(16))
	cm, _ := NewClockModel(n, 1, 100, 5e-5, randx.New(5))
	for cycle := 0; cycle < 10; cycle++ {
		cm.Synchronize()
		cm.Advance(60) // 60 s between syncs
	}
	// 100ppm · 60s = 6ms drift + sub-ms residual.
	if worst := cm.MaxAbsOffset(); worst > 0.01 {
		t.Errorf("steady-state offset %.4f too large", worst)
	}
}

func TestContentionDropsReports(t *testing.T) {
	cfg := testConfig(25)
	cfg.ContentionSlots = 2 // brutal contention window
	n, _ := New(cfg)
	totalHeard, totalDelivered, collisions := 0, 0, 0
	rng := randx.New(31)
	for round := 0; round < 30; round++ {
		_, st := n.CollectRound(geom.Pt(50, 50), 3, rng.SplitN("r", round))
		totalHeard += st.Heard
		totalDelivered += st.Delivered
		collisions += st.Collisions
	}
	if collisions == 0 {
		t.Fatal("expected collisions with 2 slots and ~12 transmitters")
	}
	if totalDelivered >= totalHeard {
		t.Error("collisions should reduce delivery")
	}
}

func TestContentionOffIsIdeal(t *testing.T) {
	cfg := testConfig(16) // ContentionSlots 0
	n, _ := New(cfg)
	_, st := n.CollectRound(geom.Pt(50, 50), 3, randx.New(32))
	if st.Collisions != 0 {
		t.Errorf("ideal MAC should have 0 collisions, got %d", st.Collisions)
	}
}

func TestMoreSlotsFewerCollisions(t *testing.T) {
	run := func(slots int) int {
		cfg := testConfig(25)
		cfg.ContentionSlots = slots
		n, _ := New(cfg)
		collisions := 0
		rng := randx.New(33)
		for round := 0; round < 40; round++ {
			_, st := n.CollectRound(geom.Pt(50, 50), 3, rng.SplitN("r", round))
			collisions += st.Collisions
		}
		return collisions
	}
	if tight, wide := run(2), run(64); wide >= tight {
		t.Errorf("64 slots (%d collisions) should beat 2 slots (%d)", wide, tight)
	}
}

func TestClusteredTDMAShieldsMembers(t *testing.T) {
	// Under heavy contention, clustering (members on TDMA) should
	// deliver more than the flat contention MAC.
	mk := func() Config {
		cfg := testConfig(25)
		cfg.ContentionSlots = 3
		return cfg
	}
	flatDelivered := 0
	{
		n, _ := New(mk())
		rng := randx.New(34)
		for round := 0; round < 40; round++ {
			_, st := n.CollectRound(geom.Pt(50, 50), 3, rng.SplitN("r", round))
			flatDelivered += st.Delivered
		}
	}
	clusteredDelivered := 0
	{
		n, _ := New(mk())
		cl, _ := n.FormClusters(5)
		rng := randx.New(34)
		for round := 0; round < 40; round++ {
			_, st := n.CollectRoundClustered(geom.Pt(50, 50), 3, cl, rng.SplitN("r", round))
			clusteredDelivered += st.Delivered
		}
	}
	if clusteredDelivered <= flatDelivered {
		t.Errorf("clustered TDMA delivered %d ≤ flat %d under contention",
			clusteredDelivered, flatDelivered)
	}
}
