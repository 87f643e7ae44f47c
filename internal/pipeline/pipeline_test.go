package pipeline

import (
	"math"
	"testing"

	"fttt/internal/core"
	"fttt/internal/deploy"
	"fttt/internal/filter"
	"fttt/internal/geom"
	"fttt/internal/mobility"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/wsnnet"
)

var fieldRect = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))

func buildService(t testing.TB, smoother filter.Smoother, wakeRadius float64) *Service {
	t.Helper()
	dep := deploy.Grid(fieldRect, 16)
	net, err := wsnnet.New(wsnnet.Config{
		Nodes:        dep.Positions(),
		BaseStation:  geom.Pt(5, 5),
		Model:        rf.Default(),
		SensingRange: 40,
		CommRange:    50,
		HopLoss:      0.02,
		HopDelay:     0.002,
		ReportBits:   256,
		Epsilon:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.New(core.Config{
		Field: fieldRect, Nodes: dep.Positions(), Model: rf.Default(),
		Epsilon: 1, SamplingTimes: 5, Range: 40, CellSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{
		Net: net, Tracker: tr, Smoother: smoother,
		Period: 0.5, K: 5, WakeRadius: wakeRadius,
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing Net/Tracker should fail")
	}
	svc := buildService(t, nil, 0)
	bad := svc.cfg
	bad.Period = 0
	if _, err := New(bad); err == nil {
		t.Error("zero period should fail")
	}
	bad = svc.cfg
	bad.K = 0
	if _, err := New(bad); err == nil {
		t.Error("K=0 should fail")
	}
}

func TestRunProducesGridOfUpdates(t *testing.T) {
	svc := buildService(t, nil, 0)
	mob := mobility.RandomWaypoint(fieldRect, 1, 5, 10, randx.New(1))
	updates := svc.Run(mob, 10, randx.New(2))
	if len(updates) != 21 {
		t.Fatalf("got %d updates, want 21", len(updates))
	}
	prev := -1.0
	for _, u := range updates {
		if u.T <= prev {
			t.Fatalf("timestamps not increasing: %v after %v", u.T, prev)
		}
		prev = u.T
		if !fieldRect.Contains(u.Final) {
			t.Fatalf("estimate %v outside field", u.Final)
		}
		if u.Error != u.Final.Dist(u.True) {
			t.Fatal("Error field inconsistent")
		}
	}
	if me := MeanError(updates); me <= 0 || me > 40 {
		t.Errorf("mean error %v implausible", me)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() []Update {
		svc := buildService(t, nil, 0)
		mob := mobility.RandomWaypoint(fieldRect, 1, 5, 8, randx.New(3))
		return svc.Run(mob, 8, randx.New(4))
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Final != b[i].Final {
			t.Fatal("pipeline not reproducible")
		}
	}
}

func TestSmootherApplied(t *testing.T) {
	kf, _ := filter.NewKalman(2, 6)
	svc := buildService(t, kf, 0)
	mob := mobility.Waypoints([]geom.Point{geom.Pt(20, 50), geom.Pt(80, 50)}, 3)
	updates := svc.Run(mob, 15, randx.New(5))
	diff := 0
	for _, u := range updates[1:] {
		if u.Final != u.Raw {
			diff++
		}
	}
	if diff == 0 {
		t.Error("smoother never changed an estimate")
	}
}

func TestWakeRadiusSleepsNodes(t *testing.T) {
	svc := buildService(t, nil, 45)
	mob := mobility.Waypoints([]geom.Point{geom.Pt(30, 30), geom.Pt(70, 70)}, 3)
	updates := svc.Run(mob, 15, randx.New(6))
	asleep := 0
	for _, u := range updates[1:] { // first round is always-on (no focus yet)
		asleep += u.Stats.Asleep
	}
	if asleep == 0 {
		t.Error("expected some duty-cycled sleeps")
	}
}

func TestStreamDeliversAndCloses(t *testing.T) {
	svc := buildService(t, nil, 0)
	mob := mobility.RandomWaypoint(fieldRect, 1, 5, 5, randx.New(7))
	ch := svc.Stream(mob, 5, randx.New(8))
	count := 0
	for u := range ch {
		if math.IsNaN(u.Error) {
			t.Fatal("NaN error")
		}
		count++
	}
	if count != 11 {
		t.Errorf("streamed %d updates, want 11", count)
	}
}

func TestMeanErrorEmpty(t *testing.T) {
	if MeanError(nil) != 0 {
		t.Error("MeanError(nil) should be 0")
	}
	if m, ok := MeanErrorOK(nil); ok || m != 0 {
		t.Errorf("MeanErrorOK(nil) = %v, %v, want 0, false", m, ok)
	}
	if m, ok := MeanErrorOK([]Update{{Error: 2}, {Error: 4}}); !ok || m != 3 {
		t.Errorf("MeanErrorOK = %v, %v, want 3, true", m, ok)
	}
}

func TestStreamDeliversDuringRun(t *testing.T) {
	// Stream must deliver each Update from inside its localization round,
	// not batch them after the run: when the consumer receives the first
	// Update, almost all round spans are still unclosed. (The old
	// implementation collected every Update first and replayed them, so
	// all spans were closed before the first receive.)
	svc := buildService(t, nil, 0)
	rec := obs.NewRecorder(0)
	svc.cfg.Tracer = rec
	closedRounds := func() int {
		n := 0
		for _, r := range rec.Records() {
			if r.Kind == obs.KindSpan && r.Component == "pipeline" && r.Name == "round" {
				n++
			}
		}
		return n
	}
	mob := mobility.RandomWaypoint(fieldRect, 1, 5, 10, randx.New(1))

	const wantRounds = 21 // duration 10 / period 0.5 + 1
	ch := svc.Stream(mob, 10, randx.New(2))
	first, ok := <-ch
	if !ok {
		t.Fatal("stream closed without updates")
	}
	if first.T != 0 {
		t.Errorf("first update at t=%v, want 0", first.T)
	}
	// Round 0's span closes only after this receive; the producer may
	// have closed it (and at most started round 1) by now, but the bulk
	// of the run must still be ahead of us.
	if closed := closedRounds(); closed >= wantRounds {
		t.Fatalf("all %d round spans closed at first update: stream is batching, not streaming", closed)
	}
	got := 1
	for range ch {
		got++
	}
	if got != wantRounds {
		t.Errorf("received %d updates, want %d", got, wantRounds)
	}
	if closed := closedRounds(); closed != wantRounds {
		t.Errorf("%d spans closed after drain, want %d", closed, wantRounds)
	}
}

func TestStreamMatchesRun(t *testing.T) {
	// The streaming path is the same computation as Run: identical
	// updates, in order, for the same seed.
	mob := mobility.RandomWaypoint(fieldRect, 1, 5, 6, randx.New(3))
	want := buildService(t, nil, 0).Run(mob, 6, randx.New(4))
	var got []Update
	for u := range buildService(t, nil, 0).Stream(mob, 6, randx.New(4)) {
		got = append(got, u)
	}
	if len(got) != len(want) {
		t.Fatalf("stream yielded %d updates, run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("update %d differs: stream %+v vs run %+v", i, got[i], want[i])
		}
	}
}
