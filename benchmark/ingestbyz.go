package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"fttt/internal/core"
	"fttt/internal/experiments"
	"fttt/internal/faults"
	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/match"
	"fttt/internal/mobility"
	"fttt/internal/randx"
	"fttt/internal/sampling"
	"fttt/internal/serve"
	"fttt/internal/serve/loadtest"
)

// ingest-byz: closed-loop POST …/reports of pre-generated, partly
// adversarial report bodies to one serve backend with the Byzantine
// defense armed.
const (
	// Many short traces rather than a few long ones: error_m is a mean
	// over a seed-fixed set of rounds, and averaging 256 targets keeps its
	// seed-to-seed spread near 3% (64 targets of 256 rounds: 9%).
	ingestTargets = 256
	// ingestRounds bodies are generated per target; a target that runs
	// out starts over from its first body (the tracker state carries on).
	ingestRounds    = 64
	ingestColluders = 0.2  // share of nodes in the colluding coalition
	ingestCrashFrac = 0.2  // share of nodes crashing at ingestCrashAt
	ingestCrashAt   = 16.0 // virtual seconds
	ingestStarLimit = 0.75 // StarFractionLimit: arms the degradation policy
)

// ingestSessionConfig is the paper fixture as a serving session, with
// the defense armed and the degradation policy on.
func ingestSessionConfig(seed uint64) serve.SessionConfig {
	cfg := paperConfig()
	nodes := make([]serve.PointWire, len(cfg.Nodes))
	for i, p := range cfg.Nodes {
		nodes[i] = serve.PointWire{X: p.X, Y: p.Y}
	}
	return serve.SessionConfig{
		Seed:              seed,
		Nodes:             nodes,
		CellSize:          cfg.CellSize,
		StarFractionLimit: ingestStarLimit,
		Defense:           &serve.DefenseWire{},
	}
}

// ingestScript is the adversary and failure scenario the report bodies
// are generated under: ByzantineScript's colluders plus
// FaultToleranceScript's burst loss and crashes.
func ingestScript(nodes []geom.Point) (*faults.Script, error) {
	byzS, err := experiments.ByzantineScript(ingestColluders, nodes)
	if err != nil {
		return nil, err
	}
	ft, err := experiments.FaultToleranceScript(ingestCrashFrac, ingestCrashAt)
	if err != nil {
		return nil, err
	}
	merged := faults.Script{Burst: ft.Burst}
	merged.Events = append(append(merged.Events, byzS.Events...), ft.Events...)
	sort.SliceStable(merged.Events, func(i, j int) bool { return merged.Events[i].At < merged.Events[j].At })
	if err := merged.Validate(); err != nil {
		return nil, err
	}
	return &merged, nil
}

// ingestInputs are the generated report bodies with their truth.
type ingestInputs struct {
	bodies    [][][]byte // [target][round]
	pos       [][]geom.Point
	colluders []bool // ground truth per node
}

func (in ingestInputs) body(t, n int) []byte      { return in.bodies[t][n%ingestRounds] }
func (in ingestInputs) truth(t, n int) geom.Point { return in.pos[t][n%ingestRounds] }

func targetName(t int) string { return fmt.Sprintf("target-%d", t) }

// genIngestInputs samples every target's rounds through a fault
// scheduler armed with the geometry the colluders need.
func genIngestInputs(seed uint64) (ingestInputs, error) {
	cfg := paperConfig()
	script, err := ingestScript(cfg.Nodes)
	if err != nil {
		return ingestInputs{}, err
	}
	root := randx.New(seed).Split("ingest-byz")
	in := ingestInputs{
		bodies:    make([][][]byte, ingestTargets),
		pos:       make([][]geom.Point, ingestTargets),
		colluders: make([]bool, len(cfg.Nodes)),
	}
	for t := 0; t < ingestTargets; t++ {
		sched := faults.New(*script, len(cfg.Nodes), root.SplitN("faults", t).Seed())
		sched.SetGeometry(cfg.Nodes, cfg.Model)
		sampler := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes, Range: cfg.Range, Epsilon: cfg.Epsilon, Faults: sched}
		m := mobility.RandomWaypoint(cfg.Field, trackVMin, trackVMax, ingestRounds, root.SplitN("waypoints", t))
		rng := root.SplitN("trace", t)
		for i, tp := range mobility.Sample(m, ingestRounds-1, 1) {
			sched.Seek(tp.T)
			g := sampler.Sample(tp.Pos, cfg.SamplingTimes, rng.SplitN("loc", i))
			b, err := json.Marshal(serve.ReportWire{Target: targetName(t), RSS: g.RSS, Reported: g.Reported})
			if err != nil {
				return ingestInputs{}, err
			}
			in.bodies[t] = append(in.bodies[t], b)
			in.pos[t] = append(in.pos[t], tp.Pos)
		}
		for i := range in.colluders {
			in.colluders[i] = in.colluders[i] || sched.Colluding(i)
		}
	}
	return in, nil
}

// ingestServer is the program-side set-up: one backend on a loopback
// listener with the defended session created over HTTP.
type ingestServer struct {
	srv      *serve.Server
	lb       *loopback
	id       string
	createMs float64
}

func buildIngestServer(sc serve.SessionConfig) (*ingestServer, error) {
	s := &ingestServer{srv: serve.New(serve.Config{})}
	var err error
	if s.lb, err = listen(s.srv); err != nil {
		return nil, err
	}
	client := newClient(1)
	defer closeClient(client)
	start := time.Now()
	if s.id, err = loadtest.CreateSession(client, s.lb.url, sc); err != nil {
		s.close()
		return nil, err
	}
	s.createMs = 1e3 * time.Since(start).Seconds()
	return s, nil
}

func (s *ingestServer) close() {
	s.lb.close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.srv.Drain(ctx) //nolint:errcheck // teardown: sessions are closed either way
}

// ingestAnswer is one request's outcome; the body is kept as a digest
// (fnvBytes), which the oracle compares against the digest of the
// serial reference's bytes.
type ingestAnswer struct {
	status int
	digest uint64
	err    error
	traced bool // sent in a traced slice: the replay times its round
}

// ingestRun holds every target's answers in send order, which is the
// server's seq order: one client owns each target and sends serially.
type ingestRun struct {
	answers [][]ingestAnswer
}

// phase runs procs closed-loop clients for dur; client c owns the
// targets t ≡ c (mod procs) and posts their next bodies round-robin.
// It returns the requests completed, the wall time and the per-request
// latencies (ms). traced marks the answers whose rounds the replay times.
func (s *ingestServer) phase(client *http.Client, in ingestInputs, run *ingestRun, dur time.Duration, procs int, traced bool) (int, time.Duration, latencies) {
	url := s.lb.url + "/v1/sessions/" + s.id + "/reports"
	var wg sync.WaitGroup
	lats := make([]latencies, procs)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for t := c; t < ingestTargets; t += procs {
					n := len(run.answers[t])
					t0 := time.Now()
					status, raw, err := post(client, url, in.body(t, n))
					t1 := time.Now()
					lats[c] = append(lats[c], float64(t1.Sub(t0))/1e6)
					run.answers[t] = append(run.answers[t], ingestAnswer{status: status, digest: fnvBytes(raw), err: err, traced: traced})
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all latencies
	for _, l := range lats {
		all = append(all, l...)
	}
	return len(all), wall, all
}

// ingestReplay is the oracle's tally plus, for the traced rounds, the
// twin-tracker and replica timings the traced run reports.
type ingestReplay struct {
	mismatches, failed int
	errSum             float64
	errN               int
	// suspects flagged by the serial defended trackers at the end, and
	// how many of them are colluders.
	flagged, trueFlagged, colluders int
	// traced-window timings (ns) and count
	n                                           int
	defended, undefended, vector, match, decode float64
	encode                                      float64
}

// decodeGroup is the handler's body decode: JSON into a ReportWire,
// then the shape check into a sampling.Group.
func decodeGroup(body []byte, nodes int, eps float64) (*sampling.Group, error) {
	var rw serve.ReportWire
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&rw); err != nil {
		return nil, err
	}
	return rw.Group(nodes, eps)
}

func (r *ingestReplay) merge(o ingestReplay) {
	r.mismatches += o.mismatches
	r.failed += o.failed
	r.errSum += o.errSum
	r.errN += o.errN
	r.flagged += o.flagged
	r.trueFlagged += o.trueFlagged
	r.colluders += o.colluders
	r.n += o.n
	r.defended += o.defended
	r.undefended += o.undefended
	r.vector += o.vector
	r.match += o.match
	r.decode += o.decode
	r.encode += o.encode
}

// checkIngest replays every target's answered requests in seq order
// through a serial defended core.Tracker on the same groups and compares
// wire bytes, targets spread over procs workers. It also times, for
// every round sent in a traced slice, the defended
// tracker against an undefended twin on the same group, replicas of the
// vector build and the match, and the handler's decode and encode.
func checkIngest(sc serve.SessionConfig, in ingestInputs, run *ingestRun, procs int) (ingestReplay, error) {
	cfg, err := sc.CoreConfig()
	if err != nil {
		return ingestReplay{}, err
	}
	shared, err := core.New(cfg)
	if err != nil {
		return ingestReplay{}, err
	}
	reps := make([]ingestReplay, ingestTargets)
	errs := make([]error, ingestTargets)
	next := make(chan int, ingestTargets) // one send per target
	for t := 0; t < ingestTargets; t++ {
		next <- t
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				reps[t], errs[t] = replayIngestTarget(cfg, shared.Division(), in, run.answers[t], t)
			}
		}()
	}
	wg.Wait()
	var rep ingestReplay
	for t := range reps {
		if errs[t] != nil {
			return rep, errs[t]
		}
		rep.merge(reps[t])
	}
	return rep, nil
}

// replayIngestTarget is checkIngest for one target.
func replayIngestTarget(cfg core.Config, div *field.Division, in ingestInputs, answers []ingestAnswer, t int) (ingestReplay, error) {
	var rep ingestReplay
	name := targetName(t)
	tr, err := core.NewWithDivision(cfg, div)
	if err != nil {
		return rep, err
	}
	plain := cfg
	plain.Defense = nil
	twin, err := core.NewWithDivision(plain, div)
	if err != nil {
		return rep, err
	}
	replica := &match.Heuristic{Div: div, Incremental: true}
	var buf bytes.Buffer
	var prev *field.Face
	for n, a := range answers {
		if a.err != nil || a.status != http.StatusOK {
			// The server's state for this target no longer follows the
			// serial replay: count the rest as failed.
			rep.failed += len(answers) - n
			break
		}
		body := in.body(t, n)
		t0 := time.Now()
		g, err := decodeGroup(body, len(cfg.Nodes), cfg.Epsilon)
		if err != nil {
			return rep, err
		}
		t1 := time.Now()
		est := tr.LocalizeGroup(g)
		t2 := time.Now()
		want, err := wireBytes(name, uint64(n), est)
		if err != nil {
			return rep, err
		}
		if fnvBytes(want) != a.digest {
			rep.mismatches++
		}
		if n < ingestRounds {
			rep.errSum += est.Pos.Dist(in.truth(t, n))
			rep.errN++
		}
		if !a.traced {
			prev = &div.Faces[est.FaceID]
			continue
		}
		g2, err := decodeGroup(body, len(cfg.Nodes), cfg.Epsilon)
		if err != nil {
			return rep, err
		}
		t3 := time.Now()
		twin.LocalizeGroup(g2)
		t4 := time.Now()
		v := g2.Vector()
		t5 := time.Now()
		replica.Match(v, prev)
		t6 := time.Now()
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(serve.WireEstimate(name, uint64(n), est)); err != nil {
			return rep, err
		}
		t7 := time.Now()
		rep.n++
		rep.decode += float64(t1.Sub(t0))
		rep.defended += float64(t2.Sub(t1))
		rep.undefended += float64(t4.Sub(t3))
		rep.vector += float64(t5.Sub(t4))
		rep.match += float64(t6.Sub(t5))
		rep.encode += float64(t7.Sub(t6))
		prev = &div.Faces[est.FaceID]
	}
	for _, node := range tr.Defense().Suspects() {
		rep.flagged++
		if in.colluders[node] {
			rep.trueFlagged++
		}
	}
	for _, c := range in.colluders {
		if c {
			rep.colluders++
		}
	}
	return rep, nil
}

func runIngestByz(o options) (*result, error) {
	in, err := genIngestInputs(o.seed)
	if err != nil {
		return nil, err
	}
	sc := ingestSessionConfig(randx.New(o.seed).Split("ingest-byz").Split("session").Seed())
	var createMs []float64
	s, setupS, err := medianSetup(func() (*ingestServer, error) {
		s, err := buildIngestServer(sc)
		if err == nil {
			createMs = append(createMs, s.createMs)
		}
		return s, err
	}, (*ingestServer).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	client := newClient(o.procs)
	defer closeClient(client)
	run := &ingestRun{answers: make([][]ingestAnswer, ingestTargets)}
	res := newResult()

	s.phase(client, in, run, o.seconds/20, o.procs, false) // warm-up, checked but not measured
	var n, tn int
	var wall, twall time.Duration
	var lats, tlats latencies
	var bd regSnap
	if !o.traced {
		m := startMeasure()
		n, wall, lats = s.phase(client, in, run, o.seconds, o.procs, false)
		if err := m.finish(res, setupS, n); err != nil {
			return nil, err
		}
	} else {
		bc, bh := backendCounters("reports"), backendHists("reports")
		for k := 0; k < traceSlices; k++ {
			un, uw, ul := s.phase(client, in, run, traceSlice(o), o.procs, false)
			n, wall, lats = n+un, wall+uw, append(lats, ul...)
			b0 := snapRegistry(s.srv.Registry(), bc, bh)
			sn, sw, sl := s.phase(client, in, run, traceSlice(o), o.procs, true)
			bd = bd.add(snapRegistry(s.srv.Registry(), bc, bh).delta(b0))
			tn, twall, tlats = tn+sn, twall+sw, append(tlats, sl...)
		}
	}

	replayOnAllCPUs(o)
	rep, err := checkIngest(sc, in, run, o.procs)
	if err != nil {
		return nil, err
	}
	total, transport := 0, 0
	for t := range run.answers {
		total += len(run.answers[t])
		for _, a := range run.answers[t] {
			if a.err != nil || a.status != http.StatusOK {
				transport++
			}
		}
	}
	res.attempted, res.mismatches = total, rep.mismatches
	res.failed = rep.failed + rep.mismatches
	res.logf("oracle: %d requests over %d targets replayed serially through a defended core.Tracker; %d mismatched, %d refused or errored",
		total, ingestTargets, rep.mismatches, transport)

	if !o.traced {
		if err := setClosedLoopE2E(res, lats, wall, "reports", o.procs); err != nil {
			return nil, err
		}
		res.set("error_m", rep.errSum/float64(rep.errN),
			fmt.Sprintf("(mean over each target's first %d reports, %d answers)", ingestRounds, rep.errN))
		return res, nil
	}

	cfg, err := sc.CoreConfig()
	if err != nil {
		return nil, err
	}
	nodes := len(cfg.Nodes)
	setBackendLayers(res, bd, "reports", nodes*(nodes-1)/2, nodes)
	rn := float64(rep.n) * 1e3
	us := func(ns float64) float64 { return ns / rn }
	handlerUs := 1e6 * bd.histMean(serveRouteLatency("reports"))
	coreUs := 1e6 * bd.histMean(mCoreLatency)
	byzUs := us(rep.defended - rep.undefended)
	coreSelfUs := us(rep.undefended - rep.vector - rep.match)
	res.set("core.localize_us", coreUs, fmt.Sprintf("(backend fttt_core_localize_seconds mean, n=%.0f)", bd.hcount[mCoreLatency]))
	res.set("byz.overhead_us", byzUs, fmt.Sprintf("(defended minus undefended twin LocalizeGroup, %d groups)", rep.n))
	res.set("byz.suspect_precision", ratio(float64(rep.trueFlagged), float64(rep.flagged)),
		fmt.Sprintf("(%d of %d flagged are colluders)", rep.trueFlagged, rep.flagged))
	res.set("byz.colluder_recall", ratio(float64(rep.trueFlagged), float64(rep.colluders)),
		fmt.Sprintf("(%d of %d target×colluder pairs flagged)", rep.trueFlagged, rep.colluders))
	res.set("vector.build_us", us(rep.vector), "(replica Group.Vector)")
	res.set("match.match_us", us(rep.match), "(replica unweighted Heuristic.Match from the previous face)")
	res.set("core.finish_us", coreSelfUs, "(undefended twin LocalizeGroup minus replica vector and match)")
	res.set("serve.decode_us", us(rep.decode), "(replica ReportWire decode + Group)")
	res.set("serve.encode_us", us(rep.encode), "(replica EstimateWire encode)")
	tracedMs := mean(tlats)
	res.set("serve.http_ms", tracedMs-handlerUs/1e3, "(client latency minus handler time)")
	res.set("serve.session_create_ms", median(sortedCopy(createMs)), fmt.Sprintf("(median of %d creates)", len(createMs)))
	start := time.Now()
	spec := cfg.DivisionSpec()
	spec.Workers = -1 // as the server builds it
	if _, err := spec.Divide(); err != nil {
		return nil, err
	}
	res.set("field.divide_ms", 1e3*time.Since(start).Seconds(), "(one Spec.Divide of the paper fixture, all CPUs)")
	hits, misses := s.srv.Registry().Counter(mCacheHits).Value(), s.srv.Registry().Counter(mCacheMisses).Value()
	res.set("fieldcache.hit_frac", ratio(hits, hits+misses), fmt.Sprintf("(%.0f hits, %.0f misses)", hits, misses))
	res.set("bench.trace_overhead_frac", (float64(twall)/float64(tn))/(float64(wall)/float64(n))-1,
		"(traced vs untraced wall time per request)")
	setAbsent(res, "(no server-side RNG or sampling on the ingest path)", "randx.streams_per_loc", "randx.derive_us", "sampling.sample_us")
	setAbsent(res, "(not on the ingest-byz path)", "cluster.proxy_ms", "cluster.router_self_ms", "bench.gen_lag_ms")
	// The core's parts come from the serial replay, while the serve
	// residual subtracts the backend's own core span: the two are
	// separate measurements of the same work, so the sum does not cancel
	// to the traced client latency, and whatever of the backend's core
	// time the replayed calls do not explain is left unattributed.
	res.logf("core: backend span %.1f µs vs replayed defended LocalizeGroup %.1f µs", coreUs, us(rep.defended))
	sumToTotal(res, []selfTime{
		{"http", 1e3*tracedMs - handlerUs, true},
		{"serve", handlerUs - us(rep.decode) - us(rep.encode) - coreUs, true},
		{"wire", us(rep.decode) + us(rep.encode), false},
		{"vector", us(rep.vector), false},
		{"match", us(rep.match), false},
		{"byz", byzUs, true},
		{"core", coreSelfUs, true},
	}, 1e3*mean(lats), "untraced request latency", true)
	return res, nil
}
