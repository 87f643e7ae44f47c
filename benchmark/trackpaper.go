package main

import (
	"fmt"
	"sync"
	"time"

	"fttt/internal/core"
	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/match"
	"fttt/internal/mobility"
	"fttt/internal/randx"
	"fttt/internal/sampling"
	"fttt/internal/serve"
)

// track-paper: closed-loop offline tracking of many targets over the
// paper's Table-1 fixture. Each target owns a core.Tracker over one
// shared division and its round i draws from Track's substream
// derivation, rng.SplitN("trace", t).SplitN("loc", i).
const (
	trackTargets = 32
	// trackRounds positions are generated per target; a target that
	// runs out wraps to its first position (one long jump the warm start
	// recovers from), so no run length exhausts the inputs.
	trackRounds = 4096
	// Random-waypoint speeds in m/s, sampled once per second.
	trackVMin, trackVMax = 1.0, 5.0
	// trackErrorRounds: error_m averages each target's first rounds, a
	// set the seed fixes, so it does not depend on the run's speed.
	trackErrorRounds = 512
)

// trackInputs are the generated per-target traces and streams.
type trackInputs struct {
	pos [][]geom.Point
	rng []*randx.Stream
}

func genTrackInputs(seed uint64, fieldRect geom.Rect) trackInputs {
	root := randx.New(seed).Split("track-paper")
	in := trackInputs{pos: make([][]geom.Point, trackTargets), rng: make([]*randx.Stream, trackTargets)}
	for t := range in.pos {
		m := mobility.RandomWaypoint(fieldRect, trackVMin, trackVMax, trackRounds, root.SplitN("waypoints", t))
		trace := mobility.Sample(m, trackRounds-1, 1)
		in.pos[t] = make([]geom.Point, len(trace))
		for i, p := range trace {
			in.pos[t][i] = p.Pos
		}
		in.rng[t] = root.SplitN("trace", t)
	}
	return in
}

func (in trackInputs) at(t, i int) geom.Point { return in.pos[t][i%len(in.pos[t])] }

// trackFixture is the program-side set-up: one division, one tracker
// per target.
type trackFixture struct {
	cfg      core.Config
	div      *field.Division
	trackers []*core.Tracker
}

func buildTrack(cfg core.Config) (*trackFixture, error) {
	shared, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	f := &trackFixture{cfg: cfg, div: shared.Division(), trackers: make([]*core.Tracker, trackTargets)}
	for t := range f.trackers {
		if f.trackers[t], err = core.NewWithDivision(cfg, f.div); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// stageTimes accumulates one worker's traced-round timings (ns).
type stageTimes struct {
	n                       int
	derive, deriveReplica   float64 // Track's SplitN("loc", i); the sampler's own derivations
	sampleGross, coreGross  float64 // Sampler.Sample; Tracker.LocalizeGroup
	vector, match           float64 // replica g.Vector(); replica Heuristic.Match
	streams, reported       int
	replicaFaceDisagreement int
	outcomes                outcomeTally
}

func (s *stageTimes) add(o stageTimes) {
	s.n += o.n
	s.derive += o.derive
	s.deriveReplica += o.deriveReplica
	s.sampleGross += o.sampleGross
	s.coreGross += o.coreGross
	s.vector += o.vector
	s.match += o.match
	s.streams += o.streams
	s.reported += o.reported
	s.replicaFaceDisagreement += o.replicaFaceDisagreement
	s.outcomes.merge(o.outcomes)
}

// trackRun holds, per target in round order, a digest of each round's
// wire estimate (what the oracle compares), plus each target's last
// face (the traced replica's warm start).
type trackRun struct {
	digests  [][]uint64
	lastFace []int
}

func newTrackRun() *trackRun {
	return &trackRun{digests: make([][]uint64, trackTargets), lastFace: make([]int, trackTargets)}
}

// record keeps round i of target t.
func (run *trackRun) record(t, i int, est core.Estimate) {
	run.digests[t] = append(run.digests[t], digestWire(serve.WireEstimate("", uint64(i), est)))
	run.lastFace[t] = est.FaceID
}

// phase runs every target round-robin on procs closed-loop workers for
// dur. Untraced rounds call Tracker.Localize; traced rounds split the
// same work into Track's substream derivation, Sampler.Sample and
// Tracker.LocalizeGroup, then time replicas of the vector build, the
// match and the sampler's own stream derivations. It returns the rounds
// completed, the phase's wall time, the per-call latencies (ms, untraced
// only) and the traced stage times.
func (f *trackFixture) phase(in trackInputs, run *trackRun, dur time.Duration, procs int, traced bool) (int, time.Duration, latencies, stageTimes) {
	var wg sync.WaitGroup
	counts := make([]int, procs)
	lats := make([]latencies, procs)
	stages := make([]stageTimes, procs)
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sampler := &sampling.Sampler{Model: f.cfg.Model, Nodes: f.cfg.Nodes, Range: f.cfg.Range, Epsilon: f.cfg.Epsilon}
			replica := &match.Heuristic{Div: f.div, Incremental: true}
			for time.Now().Before(deadline) {
				for t := w; t < trackTargets; t += procs {
					tr := f.trackers[t]
					i := len(run.digests[t])
					pos := in.at(t, i)
					var est core.Estimate
					if !traced {
						t0 := time.Now()
						est = tr.Localize(pos, in.rng[t].SplitN("loc", i))
						t1 := time.Now()
						lats[w] = append(lats[w], float64(t1.Sub(t0))/1e6)
					} else {
						est = f.tracedRound(tr, sampler, replica, in, run, t, i, &stages[w])
					}
					run.record(t, i, est)
					counts[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	total := 0
	var all latencies
	var st stageTimes
	for w := range counts {
		total += counts[w]
		all = append(all, lats[w]...)
		st.add(stages[w])
	}
	return total, wall, all, st
}

// tracedRound is one localization split at the layer boundaries. Only
// the first three timed calls are on the round's path; the replicas
// after them re-run a layer's public function on the same inputs to
// read its share of the path's time.
func (f *trackFixture) tracedRound(tr *core.Tracker, sampler *sampling.Sampler, replica *match.Heuristic, in trackInputs, run *trackRun, t, i int, st *stageTimes) core.Estimate {
	var prev *field.Face
	if i > 0 {
		prev = &f.div.Faces[run.lastFace[t]]
	}
	t0 := time.Now()
	rng := in.rng[t].SplitN("loc", i)
	t1 := time.Now()
	g := sampler.Sample(in.at(t, i), f.cfg.SamplingTimes, rng)
	t2 := time.Now()
	est := tr.LocalizeGroup(g)
	t3 := time.Now()
	v := g.Vector()
	t4 := time.Now()
	r := replica.Match(v, prev)
	t5 := time.Now()
	// The sampler derives one loss stream and one noise stream per
	// reporting node from the round's stream.
	rng.Split("loss")
	reported := 0
	for node, ok := range g.Reported {
		if ok {
			rng.SplitN("node-noise", node)
			reported++
		}
	}
	t6 := time.Now()
	st.n++
	st.derive += float64(t1.Sub(t0))
	st.sampleGross += float64(t2.Sub(t1))
	st.coreGross += float64(t3.Sub(t2))
	st.vector += float64(t4.Sub(t3))
	st.match += float64(t5.Sub(t4))
	st.deriveReplica += float64(t6.Sub(t5))
	st.streams += 2 + reported
	st.reported += reported
	if r.Face.ID != est.FaceID {
		st.replicaFaceDisagreement++
	}
	st.outcomes.add(est)
	return est
}

// trackCheck is the oracle's verdict: mismatched rounds, and the mean
// error over each target's first trackErrorRounds rounds.
type trackCheck struct {
	mismatches int
	errorM     float64
	errorN     int
}

// checkTrack replays every target serially on fresh trackers over a
// freshly built division with Tracker.Localize and compares each
// round's wire-estimate digest.
func checkTrack(cfg core.Config, in trackInputs, run *trackRun, procs int) (trackCheck, error) {
	shared, err := core.New(cfg)
	if err != nil {
		return trackCheck{}, err
	}
	refs := make([]*core.Tracker, trackTargets)
	for t := range refs {
		if refs[t], err = core.NewWithDivision(cfg, shared.Division()); err != nil {
			return trackCheck{}, err
		}
	}
	mismatches := make([]int, trackTargets)
	errSum := make([]float64, trackTargets)
	errN := make([]int, trackTargets)
	var wg sync.WaitGroup
	next := make(chan int, trackTargets) // one send per target
	for t := 0; t < trackTargets; t++ {
		next <- t
	}
	close(next)
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				for i, got := range run.digests[t] {
					want := refs[t].Localize(in.at(t, i), in.rng[t].SplitN("loc", i))
					if digestWire(serve.WireEstimate("", uint64(i), want)) != got {
						mismatches[t]++
					}
					if i < trackErrorRounds {
						errSum[t] += want.Pos.Dist(in.at(t, i))
						errN[t]++
					}
				}
			}
		}()
	}
	wg.Wait()
	var c trackCheck
	var sum float64
	for t := range mismatches {
		c.mismatches += mismatches[t]
		sum += errSum[t]
		c.errorN += errN[t]
	}
	c.errorM = sum / float64(c.errorN)
	return c, nil
}

func runTrackPaper(o options) (*result, error) {
	cfg := paperConfig()
	in := genTrackInputs(o.seed, cfg.Field)
	fix, setupS, err := medianSetup(func() (*trackFixture, error) { return buildTrack(cfg) }, func(*trackFixture) {})
	if err != nil {
		return nil, err
	}
	run := newTrackRun()
	res := newResult()

	// Warm-up: fill the matcher scratch and caches; these rounds are
	// checked by the oracle but not measured.
	fix.phase(in, run, o.seconds/20, o.procs, false)
	if !o.traced {
		m := startMeasure()
		locs, wall, lats, _ := fix.phase(in, run, o.seconds, o.procs, false)
		if err := m.finish(res, setupS, locs); err != nil {
			return nil, err
		}
		if err := setClosedLoopE2E(res, lats, wall, "localizations", o.procs); err != nil {
			return nil, err
		}
	} else {
		var locs, tlocs int
		var wall, twall time.Duration
		var lats latencies
		var st stageTimes
		for k := 0; k < traceSlices; k++ {
			n, w, l, _ := fix.phase(in, run, traceSlice(o), o.procs, false)
			locs, wall, lats = locs+n, wall+w, append(lats, l...)
			n, w, _, s := fix.phase(in, run, traceSlice(o), o.procs, true)
			tlocs, twall = tlocs+n, twall+w
			st.add(s)
		}
		setTrackLayers(res, fix, st, mean(lats),
			float64(wall)*float64(o.procs)/float64(locs), float64(twall)*float64(o.procs)/float64(tlocs))
		start := time.Now()
		if _, err := fix.cfg.DivisionSpec().Divide(); err != nil {
			return nil, err
		}
		res.set("field.divide_ms", 1e3*time.Since(start).Seconds(), "(one serial Spec.Divide of the paper fixture)")
		setAbsent(res, "(not on the track-paper path)", "byz.overhead_us", "byz.suspect_precision",
			"byz.colluder_recall", "serve.handler_ms", "serve.batch_size", "serve.shed_frac",
			"serve.timeout_frac", "serve.decode_us", "serve.encode_us", "serve.http_ms",
			"serve.session_create_ms", "cluster.proxy_ms", "cluster.router_self_ms",
			"fieldcache.hit_frac", "bench.gen_lag_ms", "core.batch_lanes_per_wave")
	}

	check, err := checkTrack(cfg, in, run, o.procs)
	if err != nil {
		return nil, err
	}
	mism := check.mismatches
	if !o.traced {
		res.set("error_m", check.errorM, fmt.Sprintf("(mean over each target's first %d rounds, %d rounds)", trackErrorRounds, check.errorN))
	}
	total := run.total()
	res.attempted, res.failed, res.mismatches = total, mism, mism
	res.logf("oracle: %d rounds over %d targets replayed serially with Tracker.Localize; %d mismatched", total, trackTargets, mism)
	return res, nil
}

func (run *trackRun) total() int {
	n := 0
	for t := range run.digests {
		n += len(run.digests[t])
	}
	return n
}

// setTrackLayers turns the traced stage times into per-layer metrics.
// untracedMs is the untraced mean Localize call; the two cost arguments
// are each phase's wall time per localization per worker (ns).
func setTrackLayers(r *result, f *trackFixture, st stageTimes, untracedMs, untracedCost, tracedCost float64) {
	n := float64(st.n)
	us := func(ns float64) float64 { return ns / n / 1e3 }
	self := []selfTime{
		{"randx", us(st.derive + st.deriveReplica), false},
		{"sampling", us(st.sampleGross - st.deriveReplica), true},
		{"vector", us(st.vector), false},
		{"match", us(st.match), false},
		{"core", us(st.coreGross - st.vector - st.match), true},
	}
	r.set("randx.streams_per_loc", float64(st.streams)/n, "(Split/SplitN derivations per localization)")
	r.set("randx.derive_us", self[0].us, fmt.Sprintf("(mean over %d traced localizations)", st.n))
	r.set("sampling.sample_us", self[1].us, "(Sampler.Sample minus its stream derivations)")
	r.set("sampling.reported_frac", float64(st.reported)/n/float64(len(f.cfg.Nodes)), "")
	r.set("vector.build_us", self[2].us, "(replica Group.Vector)")
	r.set("match.match_us", self[3].us, "(replica Heuristic.Match from the previous face)")
	r.set("core.finish_us", self[4].us, "(LocalizeGroup minus vector and match)")
	st.outcomes.set(r)
	localizeUs := untracedMs * 1e3
	r.set("core.localize_us", localizeUs, "(untraced mean Tracker.Localize call)")
	r.set("bench.trace_overhead_frac", tracedCost/untracedCost-1, "(traced vs untraced wall time per localization)")
	if st.replicaFaceDisagreement > 0 {
		r.logf("trace: replica match disagreed with the tracker's face on %d of %d rounds", st.replicaFaceDisagreement, st.n)
	}
	sumToTotal(r, self, localizeUs, "untraced Tracker.Localize", true)
}
