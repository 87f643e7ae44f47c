package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"fttt/internal/core"
	"fttt/internal/randx"
	"fttt/internal/serve"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n          int
		wantValue  float64
		wantBeyond int
		wantPct    float64
		ok         bool
	}{
		// Enough samples: the true p99 (rank 990 of 1000, 10 beyond).
		{n: 1000, wantValue: 990, wantBeyond: 10, wantPct: 99, ok: true},
		{n: 5000, wantValue: 4950, wantBeyond: 50, wantPct: 99, ok: true},
		// Too few for p99: fall back to the highest rank with 10 beyond.
		{n: 500, wantValue: 490, wantBeyond: 10, wantPct: 98, ok: true},
		{n: 11, wantValue: 1, wantBeyond: 10, wantPct: 100.0 / 11, ok: true},
		// No rank has 10 samples beyond it.
		{n: 10, ok: false},
	}
	for _, c := range cases {
		got := tailPercentile(ascending(c.n), 99)
		if got.ok != c.ok {
			t.Fatalf("n=%d: ok=%v, want %v", c.n, got.ok, c.ok)
		}
		if got.n != c.n {
			t.Errorf("n=%d: sample count %d", c.n, got.n)
		}
		if !c.ok {
			continue
		}
		if got.value != c.wantValue || got.beyond != c.wantBeyond || math.Abs(got.pct-c.wantPct) > 1e-9 {
			t.Errorf("n=%d: got value %v pct %v beyond %d, want %v %v %d",
				c.n, got.value, got.pct, got.beyond, c.wantValue, c.wantPct, c.wantBeyond)
		}
		if got.beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, got.beyond)
		}
	}
}

func TestSummarizeStatesSampleCount(t *testing.T) {
	s, err := summarize(latencies(ascending(500)))
	if err != nil {
		t.Fatal(err)
	}
	if s.n != 500 || s.p99.pct != 98 || s.p50 != 250.5 {
		t.Fatalf("summary %+v", s)
	}
	if want := "(p98, n=500, 10 beyond)"; s.p99Note != want {
		t.Errorf("p99 note %q, want %q", s.p99Note, want)
	}
	if _, err := summarize(nil); err == nil {
		t.Error("empty sample summarized without error")
	}
}

func TestClosedLoopTrimsStalls(t *testing.T) {
	// 950 operations at 1 ms and 50 stalled at 40 ms from two clients:
	// the rate is that of the unstalled operations, the median ignores
	// the stalls, and the whole-phase rate and the tail go to the report.
	ms := make(latencies, 0, 1000)
	for i := 0; i < 1000; i++ {
		v := 1.0
		if i%20 == 7 {
			v = 40
		}
		ms = append(ms, v)
	}
	r := newResult()
	if err := setClosedLoopE2E(r, ms, 20*time.Second, "ops", 2); err != nil {
		t.Fatal(err)
	}
	if got := r.values["loc_per_s"]; got != 2000 {
		t.Errorf("loc_per_s %v, want 2000", got)
	}
	if got := r.values["p50_ms"]; got != 1 {
		t.Errorf("p50_ms %v, want 1", got)
	}
	if len(r.lines) != 1 || !strings.Contains(r.lines[0], "50.0/s over the whole phase") || !strings.Contains(r.lines[0], "p99 40.000 ms") {
		t.Errorf("report %q", r.lines)
	}
	if err := setClosedLoopE2E(newResult(), nil, time.Second, "ops", 2); err == nil {
		t.Error("empty phase accepted")
	}
}

func TestGoodputLadder(t *testing.T) {
	const limit, conns = 25.0, 2
	ok := func(rate float64) rungResult {
		return rungResult{rate: rate, achieved: rate * 0.99, p99: 5, scheduled: int(rate), backlogMid: 1, backlogEnd: 1}
	}
	slow := ok(1600)
	slow.p99 = 30
	growing := ok(3200)
	growing.backlogMid, growing.backlogEnd = 100, 900
	failing := ok(2400)
	failing.failed = 1

	cases := []struct {
		name  string
		rungs []rungResult
		want  int
	}{
		{"all pass: highest rate wins", []rungResult{ok(100), ok(800), ok(1600)}, 2},
		{"tail over the limit", []rungResult{ok(100), ok(800), slow}, 1},
		{"growing backlog", []rungResult{ok(100), ok(800), growing}, 1},
		{"failures disqualify", []rungResult{ok(100), failing}, 0},
		{"a failing middle rung does not hide a passing top", []rungResult{ok(100), slow, ok(3200)}, 2},
		{"none pass", []rungResult{slow, growing}, -1},
	}
	for _, c := range cases {
		gp, idx := goodput(c.rungs, limit, conns)
		if idx != c.want {
			t.Errorf("%s: rung %d, want %d", c.name, idx, c.want)
			continue
		}
		if idx >= 0 && gp != c.rungs[idx].achieved {
			t.Errorf("%s: goodput %v, want the rung's achieved %v", c.name, gp, c.rungs[idx].achieved)
		}
		if idx < 0 && gp != 0 {
			t.Errorf("%s: goodput %v with no qualifying rung", c.name, gp)
		}
	}
}

func TestBacklogGrowing(t *testing.T) {
	r := rungResult{scheduled: 10000, backlogMid: 5, backlogEnd: 50}
	if r.backlogGrowing(2) {
		t.Error("growth within 1% of the offered requests counted as growing")
	}
	r.backlogEnd = 5 + 101
	if !r.backlogGrowing(2) {
		t.Error("growth beyond 1% of the offered requests not detected")
	}
	small := rungResult{scheduled: 100, backlogMid: 0, backlogEnd: 4}
	if small.backlogGrowing(2) {
		t.Error("growth within twice the connection count counted as growing")
	}
}

func TestSumToTotal(t *testing.T) {
	cases := []struct {
		name    string
		self    []selfTime
		invalid bool
	}{
		{"adds up", []selfTime{{"http", 60, true}, {"core", 35, false}}, false},
		{"too little explained", []selfTime{{"http", 40, true}, {"core", 30, false}}, true},
		{"negative residual within noise", []selfTime{{"http", 101, true}, {"serve", -1, true}}, false},
		{"negative residual", []selfTime{{"http", 110, true}, {"serve", -10, true}}, true},
		{"a timed call is never a residual", []selfTime{{"http", 110, false}, {"serve", -10, false}}, false},
	}
	for _, c := range cases {
		for _, enforce := range []bool{true, false} {
			r := newResult()
			sumToTotal(r, c.self, 100, "total", enforce)
			if got := r.invalid != ""; got != (c.invalid && enforce) {
				t.Errorf("%s (enforce %v): invalid %q", c.name, enforce, r.invalid)
			}
		}
	}
}

func TestDigestWireSeesEveryField(t *testing.T) {
	base := serve.EstimateWire{Target: "t", Seq: 3, X: 1, Y: 2, FaceID: 4, Similarity: 0.5, Confidence: 0.25,
		StarFraction: 0.1, Reported: 5, Stars: 6, Flipped: 7, Visited: 8}
	want := digestWire(base)
	if digestWire(base) != want {
		t.Fatal("digest is not deterministic")
	}
	// Flip each field in turn; every change must move the digest.
	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < v.NumField(); i++ {
		mod := base
		f := reflect.ValueOf(&mod).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(math.Nextafter(f.Float(), math.Inf(1)))
		case reflect.Bool:
			f.SetBool(!f.Bool())
		}
		if digestWire(mod) == want {
			t.Errorf("changing %s does not change the digest", v.Type().Field(i).Name)
		}
	}
}

// referenceAnswers builds the answers a correct server gives for the
// first n requests of a plan's rung, from the serial reference.
func referenceAnswers(t *testing.T, p *openPlan, rung, n int) map[targetKey][]openAnswer {
	t.Helper()
	cfg, err := openSessionConfig(0).CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	shared, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trackers := map[targetKey]*core.Tracker{}
	by := map[targetKey][]openAnswer{}
	for _, q := range p.rungs[rung][:n] {
		key := q.key()
		tr := trackers[key]
		if tr == nil {
			if tr, err = core.NewWithDivision(cfg, shared.Division()); err != nil {
				t.Fatal(err)
			}
			trackers[key] = tr
		}
		seq := uint64(len(by[key]))
		est := tr.Localize(q.pos, serve.RequestStream(randx.New(p.seeds[q.sess]), q.target, seq))
		raw, err := wireBytes(q.target, seq, est)
		if err != nil {
			t.Fatal(err)
		}
		var ew serve.EstimateWire
		if err := json.Unmarshal(raw, &ew); err != nil {
			t.Fatal(err)
		}
		by[key] = append(by[key], openAnswer{req: q, wire: ew, raw: raw})
	}
	return by
}

func testPlan(t *testing.T, seed uint64) *openPlan {
	t.Helper()
	rungs := []openRung{{"nominal", 400, 1}}
	p, err := genOpenPlan(seed, rungs, []time.Duration{time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOpenOracleRejectsCorruptedBody(t *testing.T) {
	p := testPlan(t, 7)
	by := referenceAnswers(t, p, 0, 120)
	mism, err := checkOpen(p.seeds, by)
	if err != nil {
		t.Fatal(err)
	}
	if mism != 0 {
		t.Fatalf("reference answers: %d mismatches", mism)
	}
	// Corrupt one digit of one body's x coordinate.
	var keys []targetKey
	for k := range by {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sess != keys[j].sess {
			return keys[i].sess < keys[j].sess
		}
		return keys[i].target < keys[j].target
	})
	a := &by[keys[0]][0]
	i := bytes.Index(a.raw, []byte(`"x":`)) + len(`"x":`)
	a.raw = append([]byte(nil), a.raw...)
	a.raw[i+1] = '0' + (a.raw[i+1]-'0'+1)%10
	if mism, err = checkOpen(p.seeds, by); err != nil {
		t.Fatal(err)
	}
	if mism != 1 {
		t.Fatalf("corrupted body: %d mismatches, want 1", mism)
	}
	// A gap in a target's seq numbers fails the rest of that target.
	by = referenceAnswers(t, p, 0, 120)
	as := by[keys[0]]
	if len(as) < 3 {
		t.Fatalf("target %v has only %d answers", keys[0], len(as))
	}
	by[keys[0]] = append(as[:1], as[2:]...)
	if mism, err = checkOpen(p.seeds, by); err != nil {
		t.Fatal(err)
	}
	if mism != len(as)-2 {
		t.Fatalf("seq gap: %d mismatches, want %d", mism, len(as)-2)
	}
}

func TestIngestOracleRejectsCorruptedBody(t *testing.T) {
	in, err := genIngestInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	sc := ingestSessionConfig(11)
	cfg, err := sc.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	// Answers from a correct server: the serial defended replay itself.
	run := &ingestRun{answers: make([][]ingestAnswer, ingestTargets)}
	for tg := 0; tg < ingestTargets; tg++ {
		tr, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 8; n++ {
			g, err := decodeGroup(in.body(tg, n), len(cfg.Nodes), cfg.Epsilon)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := wireBytes(targetName(tg), uint64(n), tr.LocalizeGroup(g))
			if err != nil {
				t.Fatal(err)
			}
			run.answers[tg] = append(run.answers[tg], ingestAnswer{status: 200, digest: fnvBytes(raw)})
		}
	}
	rep, err := checkIngest(sc, in, run, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.mismatches != 0 || rep.failed != 0 {
		t.Fatalf("reference answers: %+v", rep)
	}
	// The answer a server gives when it numbers the request wrongly.
	est, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wrong []byte
	for n := 0; n <= 3; n++ {
		g, err := decodeGroup(in.body(5, n), len(cfg.Nodes), cfg.Epsilon)
		if err != nil {
			t.Fatal(err)
		}
		if wrong, err = wireBytes(targetName(5), 4, est.LocalizeGroup(g)); err != nil {
			t.Fatal(err)
		}
	}
	run.answers[5][3].digest = fnvBytes(wrong)
	if rep, err = checkIngest(sc, in, run, 2); err != nil {
		t.Fatal(err)
	}
	if rep.mismatches != 1 {
		t.Fatalf("corrupted body: %d mismatches, want 1", rep.mismatches)
	}
	// A refused request makes the rest of its target unreplayable.
	run.answers[5][3] = ingestAnswer{status: 429}
	if rep, err = checkIngest(sc, in, run, 2); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 5 || rep.mismatches != 0 {
		t.Fatalf("refused request: %+v, want 5 failed", rep)
	}
}

func TestTrackOracleRejectsCorruptedDigest(t *testing.T) {
	cfg := paperConfig()
	in := genTrackInputs(5, cfg.Field)
	fix, err := buildTrack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := newTrackRun()
	for tg := 0; tg < trackTargets; tg++ {
		for i := 0; i < 3; i++ {
			run.record(tg, i, fix.trackers[tg].Localize(in.at(tg, i), in.rng[tg].SplitN("loc", i)))
		}
	}
	if c, err := checkTrack(cfg, in, run, 2); err != nil || c.mismatches != 0 || c.errorN != 3*trackTargets {
		t.Fatalf("reference rounds: %+v, err %v", c, err)
	}
	run.digests[9][1] ^= 1
	if c, err := checkTrack(cfg, in, run, 2); err != nil || c.mismatches != 1 {
		t.Fatalf("corrupted digest: %+v, err %v; want 1 mismatch", c, err)
	}
}

func TestSeedPlumbing(t *testing.T) {
	a, b, c := testPlan(t, 21), testPlan(t, 21), testPlan(t, 22)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different open-loop schedules")
	}
	if reflect.DeepEqual(a.rungs, c.rungs) {
		t.Error("different seeds gave the same open-loop schedule")
	}
	refA, refB := referenceAnswers(t, a, 0, 40), referenceAnswers(t, b, 0, 40)
	if !reflect.DeepEqual(refA, refB) {
		t.Error("same seed gave different serial references")
	}
	if refC := referenceAnswers(t, c, 0, 40); reflect.DeepEqual(refA, refC) {
		t.Error("different seeds gave the same serial reference")
	}

	fieldRect := paperConfig().Field
	ta, tb, tc := genTrackInputs(21, fieldRect), genTrackInputs(21, fieldRect), genTrackInputs(22, fieldRect)
	if !reflect.DeepEqual(ta.pos, tb.pos) || ta.rng[0].Seed() != tb.rng[0].Seed() {
		t.Error("same seed gave different track-paper inputs")
	}
	if reflect.DeepEqual(ta.pos, tc.pos) || ta.rng[0].Seed() == tc.rng[0].Seed() {
		t.Error("different seeds gave the same track-paper inputs")
	}

	ia, err := genIngestInputs(21)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := genIngestInputs(21)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := genIngestInputs(22)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ia, ib) {
		t.Error("same seed gave different ingest-byz bodies")
	}
	if reflect.DeepEqual(ia.bodies, ic.bodies) {
		t.Error("different seeds gave the same ingest-byz bodies")
	}
	colluders := 0
	for _, c := range ia.colluders {
		if c {
			colluders++
		}
	}
	if want := int(math.Round(ingestColluders * float64(len(ia.colluders)))); colluders != want {
		t.Errorf("%d colluders, want %d", colluders, want)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalogs and the
// workload table in step with BENCHMARK.json at the repository root.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

func TestEncodeRequiresEveryMetric(t *testing.T) {
	r := newResult()
	r.attempted = 3
	for _, m := range endToEnd[1:] {
		r.set(m.name, 1, "")
	}
	if _, err := r.encode(endToEnd); err == nil {
		t.Fatal("a missing metric was not reported")
	}
	r.set(endToEnd[0].name, 0.5, "")
	line, err := r.encode(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted != 3 || len(out.Metrics) != len(endToEnd) || out.Metrics["setup_s"].Unit != "s" {
		t.Fatalf("encoded %s", line)
	}
}
