// Allocation-regression gates for the localization hot path (run by
// `make check`). The matcher owns reusable scratch (epoch-stamped
// visited slice, recycled frontier heap), so a warmed-up Heuristic.Match
// performs zero allocations; LocalizeGroup on top of it allocates only
// the sampling vector. These tests pin those budgets so a stray
// per-call map or heap box cannot creep back in unnoticed.
package fttt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"fttt/internal/core"
	"fttt/internal/deploy"
	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/match"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/sampling"
	"fttt/internal/serve"
	"fttt/internal/vector"
)

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
}

func TestHeuristicMatchZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Random(fieldRect, 20, randx.New(6))
	rc, err := field.NewRatioClassifier(dep.Positions(), rf.Default().UncertaintyC(1))
	if err != nil {
		t.Fatal(err)
	}
	div, err := field.Divide(fieldRect, rc, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := &sampling.Sampler{Model: rf.Default(), Nodes: dep.Positions(), Range: 40, Epsilon: 1}
	m := &match.Heuristic{Div: div}
	// A spread of probes so the gate holds across cold starts, warm
	// starts and frontier growth, not just one lucky vector.
	rng := randx.New(9)
	type probe struct {
		v    vector.Vector
		prev *field.Face
	}
	probes := make([]probe, 16)
	for i := range probes {
		p := geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
		probes[i].v = s.Sample(p, 5, rng.SplitN("probe", i)).Vector()
		if i%3 != 0 {
			probes[i].prev = div.FaceAt(p)
		}
	}
	for _, pr := range probes { // warm up: grow seen + frontier scratch
		m.Match(pr.v, pr.prev)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		pr := probes[i%len(probes)]
		m.Match(pr.v, pr.prev)
		i++
	})
	if allocs != 0 {
		t.Errorf("warmed-up Heuristic.Match allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMatchBatchZeroAllocs pins the matcher's steady-state batch
// contract: a warmed-up MatchBatch pass over a mixed probe spread (cold
// + warm starts; ternary Basic lanes on the popcount kernel, Extended
// and trust-weighted lanes on the float kernel) performs zero heap
// allocations when the destination slice has capacity — the engine owns
// all its scratch.
func TestMatchBatchZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Random(fieldRect, 20, randx.New(6))
	rc, err := field.NewRatioClassifier(dep.Positions(), rf.Default().UncertaintyC(1))
	if err != nil {
		t.Fatal(err)
	}
	div, err := field.Divide(fieldRect, rc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if div.SoA() == nil {
		t.Fatal("ternary division carries no SoA store")
	}
	s := &sampling.Sampler{Model: rf.Default(), Nodes: dep.Positions(), Range: 40, Epsilon: 1}
	rng := randx.New(9)
	vs := make([]vector.Vector, 16)
	prevs := make([]*field.Face, 16)
	ws := make([][]float64, 16)
	for i := range vs {
		p := geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
		g := s.Sample(p, 5, rng.SplitN("probe", i))
		vs[i] = g.Vector()
		switch i % 4 {
		case 1: // trust-weighted lane
			ws[i] = make([]float64, len(vs[i]))
			for k := range ws[i] {
				ws[i][k] = rng.Uniform(0.05, 1)
			}
		case 2: // fractional Extended lane
			vs[i] = g.ExtendedVector()
		}
		if i%3 != 0 {
			prevs[i] = div.FaceAt(p)
		}
	}
	m := &match.Heuristic{Div: div, Incremental: true}
	out := m.MatchBatch(nil, vs, prevs, ws) // warm scratch + result capacity
	allocs := testing.AllocsPerRun(200, func() {
		out = m.MatchBatch(out[:0], vs, prevs, ws)
	})
	if allocs != 0 {
		t.Errorf("warmed-up MatchBatch allocates %.1f objects/op, want 0", allocs)
	}
}

func TestLocalizeGroupAllocBudget(t *testing.T) {
	skipUnderRace(t)
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Random(fieldRect, 20, randx.New(6))
	tr, err := core.New(core.Config{
		Field: fieldRect, Nodes: dep.Positions(), Model: rf.Default(),
		Epsilon: 1, SamplingTimes: 5, Range: 40, CellSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &sampling.Sampler{Model: rf.Default(), Nodes: dep.Positions(), Range: 40, Epsilon: 1}
	rng := randx.New(10)
	groups := make([]*sampling.Group, 16)
	for i := range groups {
		p := geom.Pt(rng.Uniform(5, 95), rng.Uniform(5, 95))
		groups[i] = s.Sample(p, 5, rng.SplitN("g", i))
	}
	for _, g := range groups {
		tr.LocalizeGroup(g)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		tr.LocalizeGroup(groups[i%len(groups)])
		i++
	})
	// One allocation for the sampling vector (Group.Vector); the matcher
	// itself must contribute none.
	const budget = 2
	if allocs > budget {
		t.Errorf("LocalizeGroup allocates %.1f objects/op, budget %d", allocs, budget)
	}
}

// TestTraceNilPathZeroAllocs pins the tracing-off contract: with a nil
// *Recorder, every instrumentation entry point must cost
// one pointer comparison and zero allocations, so always-on call sites
// in the localization hot path stay free when no recorder is attached.
func TestTraceNilPathZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	var rec *obs.Recorder
	parent := obs.SpanRef{}
	allocs := testing.AllocsPerRun(200, func() {
		sp := rec.Start(parent, "core", "localize")
		sp.Attr("reported", 5)
		sp.AttrStr("target", "t")
		sp.Flag("degraded", true)
		sp.End()
		rec.RecordEvent(parent, "faults", "report_dropped", 1)
		rec.Link(parent, parent)
		_ = rec.Records()
	})
	if allocs != 0 {
		t.Errorf("nil-tracer/nil-recorder path allocates %.1f objects/op, want 0", allocs)
	}
}

// streamSink keeps derived streams escaping, as they do in real callers,
// so the compiler cannot stack-allocate them away inside the gate.
var streamSink *randx.Stream

// TestStreamDerivationAllocs pins the randx lazy-seeding contract:
// Split and SplitN are seed arithmetic that allocate only the child
// stream, and a derive-only chain (the serving path's per-request
// derivation) never builds a math/rand source — a seeded source is a
// ~5 KB allocation, so the bytes per chain show whether one was built.
func TestStreamDerivationAllocs(t *testing.T) {
	skipUnderRace(t)
	root := randx.New(11)
	n := 0
	if allocs := testing.AllocsPerRun(200, func() { streamSink = root.Split("target:x") }); allocs != 1 {
		t.Errorf("Split allocates %.1f objects/op, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { streamSink = root.SplitN("req", n); n++ }); allocs != 1 {
		t.Errorf("SplitN allocates %.1f objects/op, want 1", allocs)
	}
	chain := func() { streamSink = root.Split("target:x").SplitN("req", n); n++ }
	// Two streams at most (the inlined intermediate Split may stay on
	// the stack); a seeded source would add its Rand and its table.
	if allocs := testing.AllocsPerRun(200, chain); allocs > 2 {
		t.Errorf("Split+SplitN chain allocates %.1f objects/op, want at most 2", allocs)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		chain()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 256 {
		t.Errorf("derive-only chain allocates %d bytes/op: it built a math/rand source", perOp)
	}
}

// serveSession stands up an in-process serving session on the paper's
// default-shaped field for the serving-path gates below.
func serveSession(tb testing.TB) *serve.Session {
	tb.Helper()
	srv := serve.New(serve.Config{})
	sess, err := srv.CreateSession(serve.SessionConfig{
		Seed:      6,
		Field:     &serve.RectWire{Max: serve.PointWire{X: 60, Y: 60}},
		GridNodes: 9,
		CellSize:  3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.CloseSession(sess.ID()) })
	return sess
}

// TestServeLocalizeAllocBudget gates the full serving path — admission,
// sequence assignment, substream derivation, the batcher round-trip and
// result fan-out — so per-request garbage (a stray closure, a
// per-request timer, JSON marshalling with no SSE subscribers) cannot
// creep into the hot path unnoticed.
func TestServeLocalizeAllocBudget(t *testing.T) {
	skipUnderRace(t)
	sess := serveSession(t)
	ctx := context.Background()
	rng := randx.New(11)
	points := make([]geom.Point, 16)
	for i := range points {
		points[i] = geom.Pt(rng.Uniform(5, 55), rng.Uniform(5, 55))
	}
	for _, p := range points { // warm up tracker + batcher scratch
		if _, err := sess.Localize(ctx, "bench", p); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sess.Localize(ctx, "bench", points[i%len(points)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// Dominated by the simulated sampling matrix and the math/rand
	// sources its drawing streams seed on first use (derive-only streams
	// cost one object each and never seed one); the serving wrapper
	// itself adds only the request struct, done channel and batch
	// slices. Headroom (×1.43, as before) over the measured 49; the
	// point is catching order-of-magnitude regressions.
	const budget = 70
	if allocs > budget {
		t.Errorf("served Localize allocates %.1f objects/op, budget %d", allocs, budget)
	}
}

// BenchmarkServeLocalize measures the in-process serving path end to
// end (no HTTP): admission through batcher to delivered estimate.
func BenchmarkServeLocalize(b *testing.B) {
	sess := serveSession(b)
	ctx := context.Background()
	rng := randx.New(11)
	points := make([]geom.Point, 16)
	for i := range points {
		points[i] = geom.Pt(rng.Uniform(5, 55), rng.Uniform(5, 55))
	}
	if _, err := sess.Localize(ctx, "bench", points[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Localize(ctx, "bench", points[i%len(points)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReportDecodeAllocs gates report ingestion's body decode — the
// handler's JSON decode into a ReportWire plus the shape check into a
// sampling.Group — on a 5×20 report from the paper fixture (20 random
// nodes, k = 5). The RSS matrix decoder fills one backing array and one
// row-header array whatever the row count, so a regression to a
// per-row or per-value allocation shows at once.
func TestReportDecodeAllocs(t *testing.T) {
	skipUnderRace(t)
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Random(fieldRect, 20, randx.New(6))
	s := &sampling.Sampler{Model: rf.Default(), Nodes: dep.Positions(), Range: 40, Epsilon: 1}
	g := s.Sample(geom.Pt(40, 60), 5, randx.New(9))
	body, err := json.Marshal(serve.ReportWire{Target: "t", RSS: g.RSS, Reported: g.Reported})
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		var rw serve.ReportWire
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&rw); err != nil {
			t.Fatal(err)
		}
		if _, err := rw.Group(20, 1); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	// Measured 19 (down from 51 with reflective [][]float64 decoding):
	// two for the matrix, the rest the decoder, its buffer growth, the
	// target string, the reported slice and the Group.
	const budget = 19
	if allocs := testing.AllocsPerRun(200, decode); allocs > budget {
		t.Errorf("report decode allocates %.1f objects/op, budget %d", allocs, budget)
	}
}
