package core

import (
	"math"
	"reflect"
	"testing"

	"fttt/internal/faults"
	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/sampling"
)

func mustScript(t *testing.T, text string) *faults.Script {
	t.Helper()
	s, err := faults.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// allStarGroup is a collection in which nobody reported — every pair is
// Star, the maximally degraded input of eq. 6.
func allStarGroup(n, k int) *sampling.Group {
	g := &sampling.Group{
		RSS:      make([][]float64, k),
		Reported: make([]bool, n),
		Epsilon:  1,
	}
	for t := range g.RSS {
		g.RSS[t] = make([]float64, n)
	}
	return g
}

func TestStarFraction(t *testing.T) {
	if got := (Estimate{}).StarFraction(); got != 0 {
		t.Errorf("zero estimate star fraction = %v", got)
	}
	if got := (Estimate{Stars: 3, pairsTotal: 6}).StarFraction(); got != 0.5 {
		t.Errorf("star fraction = %v, want 0.5", got)
	}
}

// TestDegradedFlagOnStarVector checks an all-star collection trips the
// policy and a healthy one does not.
func TestDegradedFlagOnStarVector(t *testing.T) {
	cfg := defaultConfig(16)
	cfg.StarFractionLimit = 0.5
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est := tr.LocalizeGroup(allStarGroup(16, cfg.SamplingTimes))
	if !est.Degraded {
		t.Error("all-star vector not flagged degraded")
	}
	if est.Retried || est.Extrapolated {
		t.Errorf("no recollect and no history, yet Retried=%v Extrapolated=%v",
			est.Retried, est.Extrapolated)
	}
	good := tr.Localize(geom.Pt(50, 50), randx.New(1))
	if good.Degraded {
		t.Errorf("healthy collection flagged degraded (stars %d/%d)", good.Stars, good.pairsTotal)
	}
	// Policy off: the same star vector passes through untouched.
	tr2, err := New(defaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	plain := tr2.LocalizeGroup(allStarGroup(16, 5))
	if plain.Degraded || plain.Retried || plain.Extrapolated {
		t.Errorf("StarFractionLimit=0 ran the policy: %+v", plain)
	}
}

// TestRetryRecovers feeds a degraded group whose re-collection succeeds:
// the retry's estimate must win and clear the degraded flag.
func TestRetryRecovers(t *testing.T) {
	cfg := defaultConfig(16)
	cfg.StarFractionLimit = 0.5
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	target := geom.Pt(50, 50)
	calls := 0
	est := tr.LocalizeGroupRetry(allStarGroup(16, cfg.SamplingTimes), func() *sampling.Group {
		calls++
		return tr.sampler.Sample(target, cfg.SamplingTimes, randx.New(9))
	})
	if calls != 1 {
		t.Fatalf("recollect called %d times, want exactly 1 (bounded retry)", calls)
	}
	if !est.Retried {
		t.Error("Retried not set")
	}
	if est.Degraded || est.Extrapolated {
		t.Errorf("successful retry left Degraded=%v Extrapolated=%v", est.Degraded, est.Extrapolated)
	}
	if est.Reported == 0 {
		t.Error("retry's reports were discarded")
	}
}

// TestRetryStillDegradedFallsBack drives two healthy rounds to build
// history, then an unrecoverable blackout: the estimate must come from
// mobility extrapolation, inside the field, with no NaNs.
func TestRetryStillDegradedFallsBack(t *testing.T) {
	cfg := defaultConfig(16)
	cfg.StarFractionLimit = 0.5
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(4)
	e1 := tr.Localize(geom.Pt(40, 50), rng.SplitN("loc", 0))
	e2 := tr.Localize(geom.Pt(45, 50), rng.SplitN("loc", 1))
	star := allStarGroup(16, cfg.SamplingTimes)
	est := tr.LocalizeGroupRetry(star, func() *sampling.Group { return allStarGroup(16, cfg.SamplingTimes) })
	if !est.Degraded || !est.Retried || !est.Extrapolated {
		t.Fatalf("blackout round: Degraded=%v Retried=%v Extrapolated=%v, want all true",
			est.Degraded, est.Retried, est.Extrapolated)
	}
	want := geom.Pt(2*e2.Pos.X-e1.Pos.X, 2*e2.Pos.Y-e1.Pos.Y)
	want = cfg.Field.Clamp(want)
	if est.Pos != want {
		t.Errorf("extrapolated to %v, want %v (from %v, %v)", est.Pos, want, e1.Pos, e2.Pos)
	}
	if !cfg.Field.Contains(est.Pos) {
		t.Errorf("extrapolation left the field: %v", est.Pos)
	}
	// A second blackout keeps extrapolating along the (now predicted)
	// velocity and a nil recollect result must not crash.
	est2 := tr.LocalizeGroupRetry(allStarGroup(16, cfg.SamplingTimes), func() *sampling.Group { return nil })
	if !est2.Extrapolated || !cfg.Field.Contains(est2.Pos) {
		t.Errorf("second blackout: Extrapolated=%v Pos=%v", est2.Extrapolated, est2.Pos)
	}
	// Reset clears the history: a fresh blackout has nothing to hold.
	tr.Reset()
	est3 := tr.LocalizeGroup(allStarGroup(16, cfg.SamplingTimes))
	if est3.Extrapolated {
		t.Error("extrapolated from pre-Reset history")
	}
}

// TestHoldWithSingleHistoryPoint covers the one-estimate history case:
// the fallback holds the last position instead of dead-reckoning.
func TestHoldWithSingleHistoryPoint(t *testing.T) {
	cfg := defaultConfig(16)
	cfg.StarFractionLimit = 0.5
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e1 := tr.Localize(geom.Pt(50, 50), randx.New(2))
	est := tr.LocalizeGroup(allStarGroup(16, cfg.SamplingTimes))
	if !est.Extrapolated || est.Pos != e1.Pos {
		t.Errorf("hold: Extrapolated=%v Pos=%v, want hold at %v", est.Extrapolated, est.Pos, e1.Pos)
	}
}

// TestLocalizeRetriesUnderFaultScript exercises the sampler-path retry
// end to end: a full blackout that recovers within the backoff window
// means the re-collection hears the field again.
func TestLocalizeRetriesUnderFaultScript(t *testing.T) {
	cfg := defaultConfig(16)
	cfg.StarFractionLimit = 0.5
	cfg.RetryBackoff = 10
	cfg.FaultScript = mustScript(t, "crash at=0 frac=1 recover=5")
	cfg.FaultSeed = 3
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.FaultScheduler() == nil {
		t.Fatal("no scheduler attached")
	}
	est := tr.Localize(geom.Pt(50, 50), randx.New(8))
	if !est.Retried {
		t.Fatal("blackout did not trigger the retry")
	}
	if est.Degraded {
		t.Errorf("retry after recovery still degraded: %d reported", est.Reported)
	}
	if est.Reported == 0 {
		t.Error("no reports after recovery")
	}
}

// TestConfidenceOnDegradedEstimates pins Confidence over the new
// degraded/extrapolated outcomes: always in [0,1], never NaN, and an
// all-star round scores 0.
func TestConfidenceOnDegradedEstimates(t *testing.T) {
	cfg := defaultConfig(16)
	cfg.StarFractionLimit = 0.5
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.Localize(geom.Pt(40, 50), randx.New(1))
	tr.Localize(geom.Pt(45, 50), randx.New(2))
	est := tr.LocalizeGroup(allStarGroup(16, cfg.SamplingTimes))
	if !est.Extrapolated {
		t.Fatal("expected the extrapolation fallback")
	}
	c := est.Confidence()
	if math.IsNaN(c) || c < 0 || c > 1 {
		t.Errorf("degraded confidence %v outside [0,1]", c)
	}
	if c != 0 {
		t.Errorf("all-star round confidence = %v, want 0", c)
	}
}

// fullFaultScript is a scenario exercising every fault class at once.
const fullFaultScript = `
crash at=3 frac=0.3 recover=12
drain at=0 factor=4 frac=0.2
burst pgb=0.1 pbg=0.5 loss=0.95
drift sigma=0.05
skew max=0.01
`

// TestDeterminismUnderFaults is the ISSUE's byte-identity acceptance
// check: the same fault script + seed must reproduce identical
// TrackedPoint streams for every TrackParallel worker count.
func TestDeterminismUnderFaults(t *testing.T) {
	cfg := defaultConfig(25)
	cfg.StarFractionLimit = 0.6
	cfg.RetryBackoff = 0.5
	cfg.ReportLoss = 0.1
	cfg.FaultScript = mustScript(t, fullFaultScript)
	cfg.FaultSeed = 17
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces := [][]geom.Point{makeTrace(10, 10, 30), makeTrace(80, 20, 30), makeTrace(50, 90, 30)}
	var want [][]TrackedPoint
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := tr.TrackParallel(traces, nil, randx.New(5), workers)
		if err != nil {
			t.Fatal(err)
		}
		for ti, pts := range got {
			for pi, p := range pts {
				if math.IsNaN(p.Estimate.Pos.X) || math.IsNaN(p.Estimate.Pos.Y) || math.IsNaN(p.Error) {
					t.Fatalf("workers=%d trace %d point %d: NaN estimate", workers, ti, pi)
				}
			}
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged from workers=1 under faults", workers)
		}
	}
	// And identical to a from-scratch tracker with the same config.
	tr2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := tr2.TrackParallel(traces, nil, randx.New(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Error("fresh tracker with the same (script, seed) diverged")
	}
}

// makeTrace is a simple straight-line walk inside the field.
func makeTrace(x, y float64, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = fieldRect.Clamp(geom.Pt(x+float64(i), y+0.5*float64(i)))
	}
	return pts
}

// FaultScheduler exposes the tracker's fault scheduler (nil when no
// FaultScript is configured); callers driving Localize directly can
// Seek it to their own virtual time.
func (t *Tracker) FaultScheduler() *faults.Scheduler { return t.faults }
