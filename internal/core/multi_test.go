package core

import (
	"fmt"
	"sync"
	"testing"

	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/sampling"
	"fttt/internal/stats"
	"fttt/internal/vector"
)

func TestMultiTrackerTracksTwoTargets(t *testing.T) {
	cfg := defaultConfig(16)
	m, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes, Range: cfg.Range, Epsilon: cfg.Epsilon}
	rng := randx.New(1)

	// Two targets in opposite corners walking inward.
	var errA, errB []float64
	for i := 0; i < 30; i++ {
		f := float64(i)
		posA := geom.Pt(20+f, 20+f)
		posB := geom.Pt(80-f, 80-f)
		gA := s.Sample(posA, cfg.SamplingTimes, rng.SplitN("a", i))
		gB := s.Sample(posB, cfg.SamplingTimes, rng.SplitN("b", i))
		eA, err := m.LocalizeGroup("alpha", gA)
		if err != nil {
			t.Fatal(err)
		}
		eB, err := m.LocalizeGroup("bravo", gB)
		if err != nil {
			t.Fatal(err)
		}
		errA = append(errA, eA.Pos.Dist(posA))
		errB = append(errB, eB.Pos.Dist(posB))
	}
	if got := m.Targets(); len(got) != 2 || got[0] != "alpha" || got[1] != "bravo" {
		t.Fatalf("Targets = %v", got)
	}
	if stats.Mean(errA) > 20 || stats.Mean(errB) > 20 {
		t.Errorf("multi-target errors too large: %.2f / %.2f",
			stats.Mean(errA), stats.Mean(errB))
	}
}

func TestMultiTrackerIndependentWarmStarts(t *testing.T) {
	// Target B's localizations must not perturb target A's estimates: A
	// alone and A alongside B give identical results.
	cfg := defaultConfig(9)
	s := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes, Range: cfg.Range, Epsilon: cfg.Epsilon}

	run := func(withB bool) []geom.Point {
		m, err := NewMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := randx.New(2)
		var out []geom.Point
		for i := 0; i < 15; i++ {
			posA := geom.Pt(30+float64(i), 40)
			gA := s.Sample(posA, cfg.SamplingTimes, rng.SplitN("a", i))
			if withB {
				gB := s.Sample(geom.Pt(70, 60), cfg.SamplingTimes, rng.SplitN("b", i))
				if _, err := m.LocalizeGroup("b", gB); err != nil {
					t.Fatal(err)
				}
			}
			eA, err := m.LocalizeGroup("a", gA)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, eA.Pos)
		}
		return out
	}
	alone, together := run(false), run(true)
	for i := range alone {
		if alone[i] != together[i] {
			t.Fatalf("target A perturbed by target B at step %d", i)
		}
	}
}

func TestMultiTrackerEmptyID(t *testing.T) {
	cfg := defaultConfig(9)
	m, _ := NewMulti(cfg)
	s := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes}
	g := s.Sample(geom.Pt(50, 50), cfg.SamplingTimes, randx.New(4))
	if _, err := m.LocalizeGroup("", g); err == nil {
		t.Error("empty target ID should fail")
	}
}

func TestMultiTrackerSharesDivision(t *testing.T) {
	cfg := defaultConfig(9)
	m, _ := NewMulti(cfg)
	s := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes}
	for _, id := range []string{"a", "b", "c"} {
		g := s.Sample(geom.Pt(50, 50), cfg.SamplingTimes, randx.New(5))
		if _, err := m.LocalizeGroup(id, g); err != nil {
			t.Fatal(err)
		}
	}
	// All per-target trackers point at the same division.
	div := m.Division()
	for id, ts := range m.targets {
		if ts.tr.Division() != div {
			t.Errorf("target %s has its own division", id)
		}
	}
}

func TestMultiTrackerConcurrentDistinctTargets(t *testing.T) {
	// Goroutines localizing distinct targets concurrently (run under
	// -race) must produce exactly the estimates each target gets when
	// localized alone on a fresh MultiTracker.
	cfg := defaultConfig(16)
	s := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes, Range: cfg.Range, Epsilon: cfg.Epsilon}
	const targets, rounds = 8, 20

	pos := func(g, i int) geom.Point {
		return geom.Pt(10+float64(g*10+i)/2, 90-float64(g*8+i)/2)
	}
	reference := func(g int) []geom.Point {
		m, err := NewMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("t%d", g)
		out := make([]geom.Point, rounds)
		for i := 0; i < rounds; i++ {
			grp := s.Sample(pos(g, i), cfg.SamplingTimes, randx.New(uint64(g)).SplitN("r", i))
			e, err := m.LocalizeGroup(id, grp)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = e.Pos
		}
		return out
	}
	want := make([][]geom.Point, targets)
	for g := 0; g < targets; g++ {
		want[g] = reference(g)
	}

	m, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, targets)
	for g := 0; g < targets; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("t%d", g)
			for i := 0; i < rounds; i++ {
				grp := s.Sample(pos(g, i), cfg.SamplingTimes, randx.New(uint64(g)).SplitN("r", i))
				e, err := m.LocalizeGroup(id, grp)
				if err != nil {
					errs <- err
					return
				}
				if e.Pos != want[g][i] {
					errs <- fmt.Errorf("target %d round %d: %v, want %v (cross-target interference)", g, i, e.Pos, want[g][i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(m.Targets()); got != targets {
		t.Errorf("%d targets registered, want %d", got, targets)
	}
}

func TestMultiTrackerLocalizeAllParallelMatchesSerial(t *testing.T) {
	// LocalizeAll draws each target's noise from rng.Split(ID), so the
	// batch result is identical for every worker count.
	cfg := defaultConfig(16)
	const targets, rounds = 6, 10

	run := func(workers int) []map[string]Estimate {
		m, err := NewMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		root := randx.New(99)
		var out []map[string]Estimate
		for i := 0; i < rounds; i++ {
			batch := make([]TargetPosition, targets)
			for g := range batch {
				batch[g] = TargetPosition{
					ID:  fmt.Sprintf("target-%d", g),
					Pos: geom.Pt(15+float64(g*12+i), 20+float64(g*9+i)/2),
				}
			}
			ests, err := m.LocalizeAll(batch, root.SplitN("round", i), workers)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ests)
		}
		return out
	}

	serial := run(1)
	for _, workers := range []int{2, 4, 8, 0} {
		par := run(workers)
		for i := range serial {
			if len(par[i]) != len(serial[i]) {
				t.Fatalf("workers=%d round %d: %d estimates, want %d", workers, i, len(par[i]), len(serial[i]))
			}
			for id, e := range serial[i] {
				if pe := par[i][id]; pe.Pos != e.Pos || pe.FaceID != e.FaceID {
					t.Fatalf("workers=%d round %d target %s: %v/%v, want %v/%v",
						workers, i, id, pe.Pos, pe.FaceID, e.Pos, e.FaceID)
				}
			}
		}
	}
}

func TestMultiTrackerLocalizeAllEmptyIDError(t *testing.T) {
	cfg := defaultConfig(9)
	m, _ := NewMulti(cfg)
	_, err := m.LocalizeAll([]TargetPosition{{ID: "", Pos: geom.Pt(50, 50)}}, randx.New(1), 1)
	if err == nil {
		t.Error("empty target ID in batch should fail")
	}
}

func TestTrackParallelMatchesSerial(t *testing.T) {
	// TrackParallel over one shared division must reproduce, for every
	// worker count, exactly what per-trace clones produce serially with
	// the same substreams.
	cfg := defaultConfig(16)
	const traces, steps = 5, 12

	mkTraces := func() ([][]geom.Point, [][]float64) {
		ps := make([][]geom.Point, traces)
		ts := make([][]float64, traces)
		for i := range ps {
			ps[i] = make([]geom.Point, steps)
			ts[i] = make([]float64, steps)
			for j := range ps[i] {
				ps[i][j] = geom.Pt(10+float64(i*15+j), 15+float64(i*10+j))
				ts[i][j] = float64(j) * 0.5
			}
		}
		return ps, ts
	}
	ps, tms := mkTraces()

	base, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	root := randx.New(17)
	want := make([][]TrackedPoint, traces)
	for i := range ps {
		clone, err := NewWithDivision(cfg, base.Division())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = clone.Track(ps[i], tms[i], root.SplitN("trace", i))
	}

	for _, workers := range []int{1, 2, 4, 0} {
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.TrackParallel(ps, tms, randx.New(17), workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d trace %d: %d points, want %d", workers, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j].Estimate != want[i][j].Estimate {
					t.Fatalf("workers=%d trace %d step %d: %v, want %v",
						workers, i, j, got[i][j].Estimate, want[i][j].Estimate)
				}
			}
		}
	}

	// times validation: outer length and per-trace length mismatches.
	tr, _ := New(cfg)
	if _, err := tr.TrackParallel(ps, tms[:traces-1], randx.New(1), 1); err == nil {
		t.Error("outer times length mismatch should fail")
	}
	bad := make([][]float64, traces)
	copy(bad, tms)
	bad[2] = bad[2][:steps-1]
	if _, err := tr.TrackParallel(ps, bad, randx.New(1), 1); err == nil {
		t.Error("per-trace times length mismatch should fail")
	}
	if _, err := tr.TrackParallel(ps, nil, randx.New(1), 1); err != nil {
		t.Errorf("nil times should be accepted: %v", err)
	}
}

func TestLocalizeBatchMatchesSerial(t *testing.T) {
	// The serving determinism contract: LocalizeBatch must be
	// byte-identical to executing the requests one at a time through
	// each target's own tracker, in slice order — including batches
	// where one target appears several times (per-target FIFO) and mixed
	// Pos/Group requests — for every matcher configuration: the default
	// search, the exhaustive scan, the fallback rescan, the top-M
	// estimator, and a division without a bitplane store.
	base := defaultConfig(16)
	s := &sampling.Sampler{Model: base.Model, Nodes: base.Nodes, Range: base.Range, Epsilon: base.Epsilon}
	root := randx.New(23)

	mkReqs := func() []LocalizeRequest {
		var reqs []LocalizeRequest
		seq := map[string]int{}
		for i := 0; i < 40; i++ {
			id := fmt.Sprintf("t%d", i%5)
			n := seq[id]
			seq[id]++
			pos := geom.Pt(10+float64((i*7)%80), 10+float64((i*13)%80))
			if i%4 == 3 {
				// Report-ingestion path: an externally collected group.
				g := s.Sample(pos, base.SamplingTimes, root.Split(id).SplitN("grp", n))
				reqs = append(reqs, LocalizeRequest{ID: id, Group: g})
			} else {
				reqs = append(reqs, LocalizeRequest{
					ID: id, Pos: pos,
					Rng: root.Split(id).SplitN("req", n),
				})
			}
		}
		return reqs
	}

	configs := map[string]func(c *Config){
		"heuristic":  func(c *Config) {},
		"exhaustive": func(c *Config) { c.Exhaustive = true },
		"fallback":   func(c *Config) { c.FallbackBelow = 0.5 },
		"topm":       func(c *Config) { c.TopM = 3 },
		"extended":   func(c *Config) { c.Variant = Extended },
		"no-soa": func(c *Config) {
			c.Divider = func(spec field.Spec) (*field.Division, error) {
				rc, err := field.NewRatioClassifier(spec.Nodes, spec.C)
				if err != nil {
					return nil, err
				}
				return field.Divide(spec.Field, unquantizable{rc}, spec.CellSize)
			}
		},
	}
	for name, edit := range configs {
		t.Run(name, func(t *testing.T) {
			cfg := base
			edit(&cfg)
			ref, err := NewMulti(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if name == "no-soa" && ref.Division().SoA() != nil {
				t.Fatal("custom classifier still produced a SoA store")
			}
			reqs := mkReqs()
			want := make([]Estimate, len(reqs))
			for i, r := range reqs {
				ts, err := ref.target(r.ID)
				if err != nil {
					t.Fatal(err)
				}
				if r.Group != nil {
					want[i] = ts.tr.LocalizeGroup(r.Group)
				} else {
					want[i] = ts.tr.Localize(r.Pos, r.Rng)
				}
			}
			m, err := NewMulti(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// One whole batch, then the same requests split into batches
			// of seven.
			got, err := m.LocalizeBatch(mkReqs())
			if err != nil {
				t.Fatal(err)
			}
			split, err := NewMulti(cfg)
			if err != nil {
				t.Fatal(err)
			}
			all := mkReqs()
			for lo := 0; lo < len(all); lo += 7 {
				ests, err := split.LocalizeBatch(all[lo:min(lo+7, len(all))])
				if err != nil {
					t.Fatal(err)
				}
				for i := range ests {
					if ests[i] != want[lo+i] {
						t.Fatalf("split request %d: %+v, want %+v", lo+i, ests[i], want[lo+i])
					}
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("request %d: %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}

	// Error cases: empty target ID, and a request with neither Group nor
	// stream.
	m, _ := NewMulti(base)
	if _, err := m.LocalizeBatch([]LocalizeRequest{{ID: "", Rng: root}}); err == nil {
		t.Error("empty target ID should fail")
	}
	if _, err := m.LocalizeBatch([]LocalizeRequest{{ID: "x"}}); err == nil {
		t.Error("request with neither Group nor Rng should fail")
	}
}

// unquantizable wraps a classifier and replaces pair (0, 1) with a
// fractional value, so the division carries no SoA store
// and every match takes the float kernel over Face.Signature.
type unquantizable struct{ field.PairClassifier }

func (u unquantizable) Classify(p geom.Point, i, j int) vector.Value {
	if i == 0 && j == 1 {
		return vector.Value(0.123456789)
	}
	return u.PairClassifier.Classify(p, i, j)
}
