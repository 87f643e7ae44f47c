package faults

import (
	"math"
	"reflect"
	"testing"

	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/wsnnet"
)

func mustParse(t *testing.T, text string) Script {
	t.Helper()
	s, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return *s
}

func TestCrashAndRecover(t *testing.T) {
	s := New(mustParse(t, "crash at=10 nodes=2,5 recover=30"), 8, 1)
	s.Seek(5)
	if s.Crashed(2) || s.CrashedCount() != 0 {
		t.Fatal("crashed before the event time")
	}
	s.Seek(10)
	if !s.Crashed(2) || !s.Crashed(5) || s.CrashedCount() != 2 {
		t.Fatal("crash event did not fire")
	}
	s.Seek(29.9)
	if !s.Crashed(2) {
		t.Fatal("recovered early")
	}
	s.Seek(30)
	if s.Crashed(2) || s.Crashed(5) {
		t.Fatal("recovery did not fire")
	}
}

func TestSeekMonotonic(t *testing.T) {
	s := New(mustParse(t, "crash at=10 nodes=0"), 4, 1)
	s.Seek(20)
	if !s.Crashed(0) {
		t.Fatal("crash missed")
	}
	s.Seek(5) // no-op: earlier than current time
	if !s.Crashed(0) || s.Now() != 20 {
		t.Errorf("backwards seek mutated state: crashed=%v now=%v", s.Crashed(0), s.Now())
	}
}

func TestFractionTargetsDeterministic(t *testing.T) {
	script := mustParse(t, "crash at=10 frac=0.25")
	a, b := New(script, 40, 99), New(script, 40, 99)
	a.Seek(10)
	// b seeks in two steps; the target set must not depend on the path.
	b.Seek(3)
	b.Seek(10)
	if a.CrashedCount() != 10 {
		t.Errorf("crashed %d of 40 at frac=0.25, want 10", a.CrashedCount())
	}
	for i := 0; i < 40; i++ {
		if a.Crashed(i) != b.Crashed(i) {
			t.Fatalf("node %d: seek path changed the target set", i)
		}
	}
	c := New(script, 40, 100) // different seed → (almost surely) different set
	c.Seek(10)
	same := true
	for i := 0; i < 40; i++ {
		if a.Crashed(i) != c.Crashed(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds picked the identical crash set")
	}
}

func TestScriptForLargerDeployment(t *testing.T) {
	s := New(mustParse(t, "crash at=1 nodes=2,17"), 4, 1)
	s.Seek(1) // node 17 is out of range: must not panic
	if !s.Crashed(2) || s.CrashedCount() != 1 {
		t.Errorf("in-range target not applied: count=%d", s.CrashedCount())
	}
}

func TestDriftAndSkewPerturbRSS(t *testing.T) {
	s := New(mustParse(t, "drift sigma=0.5\nskew max=0.1 slew=10"), 6, 42)
	if got := New(Script{}, 6, 42).PerturbRSS(0, -50); got != -50 {
		t.Errorf("empty script perturbed RSS: %v", got)
	}
	s.Seek(100)
	changed := false
	for i := 0; i < 6; i++ {
		if s.PerturbRSS(i, -50) != -50 {
			changed = true
		}
	}
	if !changed {
		t.Error("drift+skew left every node's RSS untouched")
	}
	// Drift is linear in t: perturbation at 2t is skew + 2·(drift at t).
	s2 := New(mustParse(t, "drift sigma=0.5"), 6, 42)
	s2.Seek(50)
	at50 := s2.PerturbRSS(3, 0)
	s2.Seek(100)
	at100 := s2.PerturbRSS(3, 0)
	if math.Abs(at100-2*at50) > 1e-12 {
		t.Errorf("drift not linear: %v at t=50, %v at t=100", at50, at100)
	}
	// Out-of-range nodes pass through.
	if got := s.PerturbRSS(17, -50); got != -50 {
		t.Errorf("out-of-range node perturbed: %v", got)
	}
}

func TestBurstChannel(t *testing.T) {
	// A channel that enters bad instantly and never leaves, losing all.
	s := New(mustParse(t, "burst pgb=1 pbg=0 loss=1 from=5"), 4, 7)
	rng := randx.New(1)
	s.Seek(0)
	if s.HopLost(0, 1, 0, rng) {
		t.Error("burst active before from=5")
	}
	s.Seek(5)
	if !s.HopLost(0, 1, 0, rng) {
		t.Error("pgb=1 loss=1 channel delivered")
	}
	// Base-station hops (rx=-1) evolve the tx channel the same way.
	if !s.HopLost(1, -1, 0, rng) {
		t.Error("bs hop ignored the burst channel")
	}
	// A pgb=0 channel never leaves the good state: base loss applies.
	good := New(mustParse(t, "burst pgb=0 pbg=1 loss=1"), 4, 7)
	good.Seek(10)
	if good.HopLost(0, 1, 0, randx.New(2)) {
		t.Error("good-state channel used BadLoss")
	}
}

func TestDropReport(t *testing.T) {
	s := New(mustParse(t, "crash at=10 nodes=1"), 4, 3)
	rng := randx.New(9)
	s.Seek(10)
	if !s.DropReport(1, rng) {
		t.Error("crashed node reported")
	}
	if s.DropReport(0, rng) {
		t.Error("healthy node dropped with no burst")
	}
	if s.DropReport(-1, rng) || s.DropReport(99, rng) {
		t.Error("out-of-range node ids must pass through")
	}
}

func TestBeginRoundSyncsNetwork(t *testing.T) {
	nodes := []geom.Point{geom.Pt(10, 0), geom.Pt(20, 0), geom.Pt(30, 0)}
	net, err := wsnnet.New(wsnnet.Config{
		Nodes: nodes, BaseStation: geom.Pt(0, 0), Model: rf.Default(),
		CommRange: 50, ReportBits: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(mustParse(t, "crash at=10 nodes=1 recover=20\ndrain at=0 factor=4 nodes=2"), 3, 5)
	s.BeginRound(net, 10)
	if net.Alive[1] {
		t.Fatal("BeginRound did not kill the crashed node")
	}
	s.BeginRound(net, 20)
	if !net.Alive[1] {
		t.Fatal("BeginRound did not revive after recover")
	}
	// Drain factor reached the network's energy scaling.
	e0 := net.Energy[2]
	net.CollectRound(geom.Pt(25, 0), 2, randx.New(1))
	if net.Energy[2]-e0 == 0 {
		t.Skip("node 2 spent nothing this round")
	}
	// Only the scheduler's own victims are revived: an externally killed
	// node stays dead.
	net.Kill(0)
	s.BeginRound(net, 30)
	if net.Alive[0] {
		t.Error("BeginRound revived an externally killed node")
	}
}

func TestSchedulerReplicasLockstep(t *testing.T) {
	script := mustParse(t, `
crash at=10 frac=0.3 recover=25
drain at=5 factor=3 frac=0.2
burst pgb=0.2 pbg=0.6 loss=0.8
drift sigma=0.1
skew max=0.01
`)
	a, b := New(script, 20, 77), New(script, 20, 77)
	rngA, rngB := randx.New(4), randx.New(4)
	for _, now := range []float64{0, 5, 10, 12, 25, 40} {
		a.Seek(now)
		b.Seek(now)
		for i := 0; i < 20; i++ {
			if a.Crashed(i) != b.Crashed(i) {
				t.Fatalf("t=%v node %d: crash state diverged", now, i)
			}
			if a.PerturbRSS(i, -60) != b.PerturbRSS(i, -60) {
				t.Fatalf("t=%v node %d: RSS perturbation diverged", now, i)
			}
			if a.HopLost(i, -1, 0.05, rngA) != b.HopLost(i, -1, 0.05, rngB) {
				t.Fatalf("t=%v node %d: hop-loss draw diverged", now, i)
			}
		}
	}
	if !reflect.DeepEqual(a.scale, b.scale) {
		t.Error("energy scales diverged")
	}
}

// CrashedCount returns how many nodes are currently fault-crashed.
func (s *Scheduler) CrashedCount() int {
	c := 0
	for _, x := range s.crashed {
		if x {
			c++
		}
	}
	return c
}
