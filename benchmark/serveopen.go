package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fttt/internal/cluster"
	"fttt/internal/core"
	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/match"
	"fttt/internal/mobility"
	"fttt/internal/randx"
	"fttt/internal/sampling"
	"fttt/internal/serve"
	"fttt/internal/serve/loadtest"
)

// serve-open: seeded-Poisson POST …/localize traffic through a cluster
// router to two serve backends, at a fixed ladder of offered rates.
const (
	openSessions = 4
	openTargets  = 8 // per session
	// openLimitMs is the p99 latency limit (from due time) a rung must
	// meet to count toward goodput_rps. Below capacity the p99 read
	// 3–31 ms depending on how often the host stalled the VM; a rung
	// offered at 85% of capacity or more read 95 ms or more.
	openLimitMs = 50.0
	// genLagLimitMs and genLagShare bound the generator's p99 dispatch
	// lag on every rung: beyond the larger of the two (the share is of
	// the rung's own p99 latency) the run is invalid, not slow.
	genLagLimitMs = 20.0
	genLagShare   = 0.1
)

// openBackendNames are the two backends' member names. The router
// places sessions by rendezvous hash of (session ID, name), and names
// its sessions c1, c2, …; with these names c1–c4 land two on each
// backend, so both carry traffic.
var openBackendNames = []string{"a", "b"}

// openRung is one offered rate of the ladder; share is its part of the
// measured seconds.
type openRung struct {
	name  string
	rate  float64
	share float64
}

// The ladder runs from well below to above the cluster's capacity,
// which is 1.7k to 2k localizations/s through the router on one Go
// processor. nominal gets the most time: at 15 seconds its p99 has
// about two dozen answers beyond it. r3200 is the overload rung. The
// ladder's readings go to the report only: in an open loop a stall of
// the VM queues every request due while it lasts, and on runs of one
// build the nominal rung's median latency spread 20% of itself across
// seeds even on a calm host, its p99 and goodput far more.
var openLadder = []openRung{
	{"low", 100, 0.05},
	{"nominal", 800, 0.2},
	{"r1600", 1600, 0.05},
	{"r3200", 3200, 0.05},
}

// The bounded metrics come from a closed loop through the same router
// before the ladder: procs senders each send the next planned request
// as soon as their previous one is answered, for openClosedShare of the
// measured seconds. openClosedRate only sizes the plan: it is above
// the cluster's capacity, so the senders never run out of requests.
const (
	openClosedShare = 0.6
	openClosedRate  = 4000
)

const openNominal = 1

// openSessionConfig is the 9-node 60×60 m / 3 m serving fixture.
func openSessionConfig(seed uint64) serve.SessionConfig {
	return serve.SessionConfig{
		Seed:      seed,
		Field:     &serve.RectWire{Max: serve.PointWire{X: 60, Y: 60}},
		GridNodes: 9,
		CellSize:  3,
	}
}

// targetKey names one target of one session.
type targetKey struct {
	sess   int
	target string
}

// openReq is one scheduled request.
type openReq struct {
	due    time.Duration // offset from the rung's start
	sess   int
	target string
	pos    geom.Point
	body   []byte
}

func (q openReq) key() targetKey { return targetKey{q.sess, q.target} }

// openPlan is the whole generated input of a run: per rung, the
// arrival schedule with every request's session, target and position.
type openPlan struct {
	seeds []uint64 // per session
	rungs [][]openReq
}

// genOpenPlan draws the schedule. Arrivals are Poisson at each rung's
// rate over its duration; every request picks a session and a target
// uniformly, and a target's n-th request (in due order) sits at the
// n-th one-second point of its random-waypoint trace.
func genOpenPlan(seed uint64, rungs []openRung, durs []time.Duration) (*openPlan, error) {
	root := randx.New(seed).Split("serve-open")
	p := &openPlan{seeds: make([]uint64, openSessions), rungs: make([][]openReq, len(rungs))}
	for s := range p.seeds {
		p.seeds[s] = root.SplitN("session", s).Seed()
	}
	arrivals := root.Split("arrivals")
	counts := map[targetKey]int{}
	for r, rung := range rungs {
		rng := arrivals.SplitN(rung.name, r)
		t := 0.0
		end := durs[r].Seconds()
		for {
			t += rng.Exponential(rung.rate)
			if t >= end {
				break
			}
			s := rng.Intn(openSessions)
			target := fmt.Sprintf("%s-%d", targetPrefix(rung), rng.Intn(openTargets))
			p.rungs[r] = append(p.rungs[r], openReq{due: time.Duration(t * float64(time.Second)), sess: s, target: target})
			counts[targetKey{s, target}]++
		}
	}
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(60, 60))
	traces := map[targetKey][]geom.Point{}
	for key, n := range counts {
		m := mobility.RandomWaypoint(fieldRect, trackVMin, trackVMax, float64(n), root.SplitN("waypoints:"+key.target, key.sess))
		for _, tp := range mobility.Sample(m, float64(n-1), 1) {
			traces[key] = append(traces[key], tp.Pos)
		}
	}
	used := map[targetKey]int{}
	for r := range p.rungs {
		for i := range p.rungs[r] {
			q := &p.rungs[r][i]
			key := q.key()
			q.pos = traces[key][used[key]]
			used[key]++
			b, err := json.Marshal(serve.LocalizeWire{Target: q.target, X: q.pos.X, Y: q.pos.Y})
			if err != nil {
				return nil, err
			}
			q.body = b
		}
	}
	return p, nil
}

// targetPrefix keeps the warm-up rung's targets apart from the measured
// ones, so warm-up rounds never shift a measured target's sequence.
func targetPrefix(r openRung) string {
	if r.name == "warm" {
		return "warm"
	}
	return "t"
}

// openCluster is the program-side set-up: two backends and a router on
// loopback listeners, with the sessions created through the router.
type openCluster struct {
	backends []*serve.Server
	servers  []*loopback
	router   *cluster.Router
	front    *loopback
	ids      []string
	createMs []float64
}

func buildOpenCluster(seeds []uint64) (*openCluster, error) {
	c := &openCluster{}
	var members []cluster.Backend
	for _, name := range openBackendNames {
		srv := serve.New(serve.Config{})
		lb, err := listen(srv)
		if err != nil {
			c.close()
			return nil, err
		}
		c.backends = append(c.backends, srv)
		c.servers = append(c.servers, lb)
		members = append(members, cluster.Backend{Name: name, URL: lb.url})
	}
	rt, err := cluster.New(cluster.Config{Backends: members})
	if err != nil {
		c.close()
		return nil, err
	}
	c.router = rt
	if c.front, err = listen(rt); err != nil {
		c.close()
		return nil, err
	}
	client := newClient(1)
	defer closeClient(client)
	for _, s := range seeds {
		start := time.Now()
		id, err := loadtest.CreateSession(client, c.front.url, openSessionConfig(s))
		if err != nil {
			c.close()
			return nil, err
		}
		c.createMs = append(c.createMs, 1e3*time.Since(start).Seconds())
		c.ids = append(c.ids, id)
	}
	return c, nil
}

func (c *openCluster) close() {
	if c.front != nil {
		c.front.close()
	}
	if c.router != nil {
		c.router.Close()
	}
	for _, lb := range c.servers {
		lb.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, b := range c.backends {
		b.Drain(ctx) //nolint:errcheck // teardown: sessions are closed either way
	}
}

// backendSnap sums the given metrics over every backend registry.
func (c *openCluster) backendSnap(counters, hists []string) regSnap {
	var s regSnap
	for i, b := range c.backends {
		bs := snapRegistry(b.Registry(), counters, hists)
		if i == 0 {
			s = bs
		} else {
			s = s.add(bs)
		}
	}
	return s
}

func routerHists() []string {
	out := make([]string, len(openBackendNames))
	for i, name := range openBackendNames {
		out[i] = `fttt_router_proxy_seconds{backend="` + name + `"}`
	}
	return out
}

// routerProxyMean is the mean proxy time (s) over every backend.
func routerProxyMean(d regSnap) float64 {
	var sum, n float64
	for _, h := range routerHists() {
		sum += d.hsum[h]
		n += d.hcount[h]
	}
	return ratio(sum, n)
}

// openOutcome is what the generator recorded for one request.
type openOutcome struct {
	dueAt, sentAt, doneAt time.Time
	status                int
	body                  []byte
	err                   error
}

// openRungRun is one executed rung.
type openRungRun struct {
	reqs  []openReq
	out   []openOutcome
	start time.Time
	dur   time.Duration
	lagMs latencies
}

// runRung offers one rung open-loop: at most conns sender goroutines
// (one HTTP connection each) take the requests in schedule order, and
// each sends its request when it is due, or at once if it fell due
// while every sender was busy. Latency is counted from the due time, so
// a stalled server is charged for the requests queued behind it. A
// request's dispatch lag is how late its sender sent it after being
// free for it: the generator's own lateness, not queueing.
//
// With closed set the rung is a closed loop instead: every sender sends
// the next request as soon as it is free, due times are ignored (a
// request is due when it is sent), and no sender takes a request after
// dur; the run keeps only the requests sent.
func runRung(client *http.Client, base string, ids []string, reqs []openReq, dur time.Duration, conns int, closed bool) *openRungRun {
	rr := &openRungRun{reqs: reqs, out: make([]openOutcome, len(reqs)), dur: dur, lagMs: make(latencies, len(reqs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	rr.start = time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if closed && time.Since(rr.start) >= dur {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				q := reqs[i]
				o := &rr.out[i]
				o.dueAt = rr.start.Add(q.due)
				free := time.Now()
				if closed {
					o.dueAt = free
				} else if d := o.dueAt.Sub(free); d > 0 {
					sleepPrecise(d)
					free = o.dueAt
				}
				o.sentAt = time.Now()
				rr.lagMs[i] = float64(o.sentAt.Sub(free)) / 1e6
				o.status, o.body, o.err = post(client, base+"/v1/sessions/"+ids[q.sess]+"/localize", q.body)
				o.doneAt = time.Now()
			}
		}()
	}
	wg.Wait()
	if n := int(next.Load()); n < len(reqs) {
		rr.reqs, rr.out, rr.lagMs = reqs[:n], rr.out[:n], rr.lagMs[:n]
	}
	return rr
}

// sleepPrecise sleeps for d in the kernel. A time.Sleep waits on the Go
// runtime's timers, and when every goroutine is idle the runtime waits
// for the next timer in epoll_wait, whose timeout is whole
// milliseconds: at a few hundred requests per second requests then went
// out about 0.4 ms late on the median and over 1 ms late at p99, and
// that lag, counted in the latency from the due time, moved p50_ms and
// p99_ms from run to run.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// latencyMs returns each request's latency from its due time (ms).
func (rr *openRungRun) latencyMs() latencies {
	out := make(latencies, len(rr.out))
	for i, o := range rr.out {
		out[i] = float64(o.doneAt.Sub(o.dueAt)) / 1e6
	}
	return out
}

// serviceMs returns each request's send-to-answer time (ms).
func (rr *openRungRun) serviceMs() latencies {
	out := make(latencies, len(rr.out))
	for i, o := range rr.out {
		out[i] = float64(o.doneAt.Sub(o.sentAt)) / 1e6
	}
	return out
}

// failures counts transport errors and non-200 answers.
func (rr *openRungRun) failures() int {
	n := 0
	for _, o := range rr.out {
		if o.err != nil || o.status != http.StatusOK {
			n++
		}
	}
	return n
}

// backlogAt counts requests due by t but not answered by t.
func (rr *openRungRun) backlogAt(t time.Time) int {
	n := 0
	for _, o := range rr.out {
		if !o.dueAt.After(t) && o.doneAt.After(t) {
			n++
		}
	}
	return n
}

// summary turns the rung into a ladder reading.
func (rr *openRungRun) summary(rate float64) (rungResult, summary, error) {
	s, err := summarize(rr.latencyMs())
	if err != nil {
		return rungResult{}, s, err
	}
	last := rr.start
	for _, o := range rr.out {
		if o.doneAt.After(last) {
			last = o.doneAt
		}
	}
	ok := len(rr.out) - rr.failures()
	return rungResult{
		rate:       rate,
		achieved:   float64(ok) / last.Sub(rr.start).Seconds(),
		p99:        s.p99.value,
		failed:     len(rr.out) - ok,
		backlogMid: rr.backlogAt(rr.start.Add(rr.dur / 2)),
		backlogEnd: rr.backlogAt(rr.start.Add(rr.dur)),
		scheduled:  len(rr.out),
	}, s, nil
}

// rungAttempts is how many times a rung is offered before a generator
// that keeps falling behind makes the run invalid.
const rungAttempts = 3

// offerRung runs one rung until its generator keeps to the schedule:
// an attempt whose p99 dispatch lag exceeds the larger of genLagLimitMs
// and genLagShare of the rung's p99 latency is discarded as invalid,
// not counted as slow, and the same schedule is offered again. Every
// attempt's answers still go to the oracle (runs). After rungAttempts
// failures the run is marked invalid.
func offerRung(r *result, runs *[]*openRungRun, name string, offer func() *openRungRun) (*openRungRun, summary, error) {
	for attempt := 1; ; attempt++ {
		rr := offer()
		*runs = append(*runs, rr)
		lat, err := summarize(rr.latencyMs())
		if err != nil {
			return nil, lat, fmt.Errorf("rung %s: %w", name, err)
		}
		lag, err := summarize(rr.lagMs)
		if err != nil {
			return nil, lag, fmt.Errorf("rung %s: %w", name, err)
		}
		limit := math.Max(genLagLimitMs, genLagShare*lat.p99.value)
		r.logf("generator %-8s attempt %d: dispatch lag p50 %.3f ms, p99 %.3f ms %s (limit %.1f ms)",
			name, attempt, lag.p50, lag.p99.value, lag.p99Note, limit)
		if lag.p99.value <= limit {
			return rr, lag, nil
		}
		if attempt == rungAttempts {
			r.invalid = fmt.Sprintf("generator fell behind on rung %s in all %d attempts: p99 dispatch lag %.2f ms > %.1f ms",
				name, rungAttempts, lag.p99.value, limit)
			return rr, lag, nil
		}
	}
}

// openAnswer is one decoded 200 answer with the request that caused it.
type openAnswer struct {
	req  openReq
	wire serve.EstimateWire
	raw  []byte
}

// collectAnswers groups every 200 answer by (session, target) in the
// seq order the server assigned.
func collectAnswers(runs []*openRungRun) (map[targetKey][]openAnswer, int) {
	by := map[targetKey][]openAnswer{}
	bad := 0
	for _, rr := range runs {
		for i, o := range rr.out {
			if o.err != nil || o.status != http.StatusOK {
				continue
			}
			var ew serve.EstimateWire
			if err := json.Unmarshal(o.body, &ew); err != nil {
				bad++
				continue
			}
			q := rr.reqs[i]
			by[q.key()] = append(by[q.key()], openAnswer{req: q, wire: ew, raw: o.body})
		}
	}
	for _, as := range by {
		sort.Slice(as, func(i, j int) bool { return as[i].wire.Seq < as[j].wire.Seq })
	}
	return by, bad
}

// checkOpen replays every (session, target) in seq order through a
// serial core.Tracker with serve.RequestStream and compares wire bytes.
// A gap in a target's seq numbers makes every later answer of that
// target a mismatch (the serial state can no longer be reproduced).
func checkOpen(seeds []uint64, by map[targetKey][]openAnswer) (int, error) {
	cfg, err := openSessionConfig(0).CoreConfig()
	if err != nil {
		return 0, err
	}
	shared, err := core.New(cfg)
	if err != nil {
		return 0, err
	}
	mism := 0
	for key, as := range by {
		root := randx.New(seeds[key.sess])
		tr, err := core.NewWithDivision(cfg, shared.Division())
		if err != nil {
			return 0, err
		}
		for n, a := range as {
			if a.wire.Seq != uint64(n) {
				mism += len(as) - n
				break
			}
			est := tr.Localize(a.req.pos, serve.RequestStream(root, key.target, uint64(n)))
			want, err := wireBytes(key.target, uint64(n), est)
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(want, a.raw) {
				mism++
			}
		}
	}
	return mism, nil
}

func runServeOpen(o options) (*result, error) {
	var rungs []openRung
	var durs []time.Duration
	warm := openRung{"warm", openLadder[openNominal].rate, 0}
	rungs = append(rungs, warm)
	durs = append(durs, o.seconds/20)
	if o.traced {
		nom := openLadder[openNominal]
		rungs = append(rungs, openRung{"untraced", nom.rate, 0.5}, openRung{"traced", nom.rate, 0.5})
	} else {
		rungs = append(rungs, openRung{"closed", openClosedRate, openClosedShare})
		rungs = append(rungs, openLadder...)
	}
	for _, r := range rungs[1:] {
		durs = append(durs, time.Duration(r.share*float64(o.seconds)))
	}
	plan, err := genOpenPlan(o.seed, rungs, durs)
	if err != nil {
		return nil, err
	}
	c, setupS, err := medianSetup(func() (*openCluster, error) { return buildOpenCluster(plan.seeds) }, (*openCluster).close)
	if err != nil {
		return nil, err
	}
	defer c.close()
	client := newClient(o.procs)
	defer closeClient(client)

	res := newResult()
	runs := []*openRungRun{runRung(client, c.front.url, c.ids, plan.rungs[0], durs[0], o.procs, false)}
	if !o.traced {
		m := startMeasure()
		closed := runRung(client, c.front.url, c.ids, plan.rungs[1], durs[1], o.procs, true)
		wall := time.Since(closed.start)
		runs = append(runs, closed)
		if err := m.finish(res, setupS, len(closed.out)); err != nil {
			return nil, err
		}
		if err := setClosedLoopE2E(res, closed.latencyMs(), wall, "localizations", o.procs); err != nil {
			return nil, err
		}
		var ladder []rungResult
		var sums []summary
		for r := 2; r < len(rungs); r++ {
			r := r
			rr, _, err := offerRung(res, &runs, rungs[r].name, func() *openRungRun {
				return runRung(client, c.front.url, c.ids, plan.rungs[r], durs[r], o.procs, false)
			})
			if err != nil {
				return nil, err
			}
			rs, s, err := rr.summary(rungs[r].rate)
			if err != nil {
				return nil, fmt.Errorf("rung %s: %w", rungs[r].name, err)
			}
			ladder = append(ladder, rs)
			sums = append(sums, s)
			res.logf("rung %-8s offered %6.0f/s: achieved %7.1f/s, p50 %.3f ms, p99 %.3f ms %s, backlog mid %d end %d, failed %d",
				rungs[r].name, rs.rate, rs.achieved, s.p50, s.p99.value, s.p99Note, rs.backlogMid, rs.backlogEnd, rs.failed)
		}
		nom, top := sums[openNominal], sums[len(sums)-1]
		res.logf("ladder: nominal p50 %.3f ms %s, p99 %.3f ms %s; top rung p99 %.3f ms %s (from due time)",
			nom.p50, nom.p50Note, nom.p99.value, nom.p99Note, top.p99.value, top.p99Note)
		gp, idx := goodput(ladder, openLimitMs, o.procs)
		note := "no rung met the limit"
		if idx >= 0 {
			note = fmt.Sprintf("rung %s", openLadder[idx].name)
		}
		res.logf("ladder: goodput %.1f/s (%s: p99 ≤ %.0f ms, no failures, no growing backlog)", gp, note, openLimitMs)
		by, _ := collectAnswers(runs[2:])
		var errSum float64
		n := 0
		for _, as := range by {
			for _, a := range as {
				errSum += a.req.pos.Dist(geom.Pt(a.wire.X, a.wire.Y))
				n++
			}
		}
		res.set("error_m", errSum/float64(n), fmt.Sprintf("(mean over %d ladder answers)", n))
	} else {
		m := startMeasure()
		untraced, _, err := offerRung(res, &runs, rungs[1].name, func() *openRungRun {
			return runRung(client, c.front.url, c.ids, plan.rungs[1], durs[1], o.procs, false)
		})
		m.stop()
		if err != nil {
			return nil, err
		}
		bc, bh := backendCounters("localize"), backendHists("localize")
		var bd, rd regSnap
		traced, lag, err := offerRung(res, &runs, rungs[2].name, func() *openRungRun {
			b0, r0 := c.backendSnap(bc, bh), snapRegistry(c.router.Registry(), nil, routerHists())
			rr := runRung(client, c.front.url, c.ids, plan.rungs[2], durs[2], o.procs, false)
			bd = c.backendSnap(bc, bh).delta(b0)
			rd = snapRegistry(c.router.Registry(), nil, routerHists()).delta(r0)
			return rr
		})
		if err != nil {
			return nil, err
		}
		res.set("bench.gen_lag_ms", lag.p99.value, lag.p99Note+" dispatch behind schedule")
		replayOnAllCPUs(o)
		if err := setOpenLayers(res, c, plan, traced, untraced, bd, rd); err != nil {
			return nil, err
		}
	}

	replayOnAllCPUs(o)
	by, bad := collectAnswers(runs)
	mism, err := checkOpen(plan.seeds, by)
	if err != nil {
		return nil, err
	}
	attempted, transport := 0, 0
	for _, rr := range runs {
		attempted += len(rr.out)
		transport += rr.failures()
	}
	res.attempted, res.mismatches = attempted, mism
	res.failed = transport + bad + mism
	res.logf("oracle: %d answers over %d session targets replayed serially with serve.RequestStream; %d mismatched, %d refused or errored",
		attempted-transport-bad, len(by), mism, transport+bad)
	return res, nil
}

// setOpenLayers fills the serve-open per-layer metrics from the traced
// rung: the backends' and the router's registry deltas, the generator's
// own timings, and replicas of the layers' public functions run after
// the rung on the same inputs.
func setOpenLayers(r *result, c *openCluster, plan *openPlan, traced, untraced *openRungRun, bd, rd regSnap) error {
	cfg, err := openSessionConfig(0).CoreConfig()
	if err != nil {
		return err
	}
	nodes := len(cfg.Nodes)
	setBackendLayers(r, bd, "localize", nodes*(nodes-1)/2, nodes)
	handlerMs := 1e3 * bd.histMean(serveRouteLatency("localize"))
	proxyMs := 1e3 * routerProxyMean(rd)
	coreUs := 1e6 * bd.histMean(mCoreLatency)
	svcT, err := summarize(traced.serviceMs())
	if err != nil {
		return err
	}
	svcU, err := summarize(untraced.serviceMs())
	if err != nil {
		return err
	}
	r.set("core.localize_us", coreUs, fmt.Sprintf("(backend fttt_core_localize_seconds mean, n=%.0f)", bd.hcount[mCoreLatency]))
	r.set("cluster.proxy_ms", proxyMs, "(router fttt_router_proxy_seconds mean)")
	r.set("cluster.router_self_ms", proxyMs-handlerMs, "(proxy time minus backend handler time)")
	r.set("serve.http_ms", svcT.meanValue-proxyMs, "(client send-to-answer minus router proxy time)")

	rep, err := replicateServe(cfg, plan, traced)
	if err != nil {
		return err
	}
	r.set("randx.streams_per_loc", rep.streams, "(Split/SplitN derivations per request, replica)")
	r.set("randx.derive_us", rep.deriveUs, fmt.Sprintf("(replica over %d answers)", rep.n))
	r.set("sampling.sample_us", rep.sampleUs, "(replica Sampler.Sample minus its derivations)")
	r.set("vector.build_us", rep.vectorUs, "(replica)")
	r.set("match.match_us", rep.matchUs, "(replica Heuristic.Match from the previous face)")
	r.set("serve.decode_us", rep.decodeUs, "(replica LocalizeWire decode)")
	r.set("serve.encode_us", rep.encodeUs, "(replica EstimateWire encode)")
	r.set("core.finish_us", rep.coreUs-rep.vectorUs-rep.matchUs, "(replica LocalizeGroup minus vector and match)")
	r.set("serve.session_create_ms", median(sortedCopy(c.createMs)), fmt.Sprintf("(median of %d creates through the router)", len(c.createMs)))
	start := time.Now()
	spec := cfg.DivisionSpec()
	spec.Workers = -1 // as the server builds it
	if _, err := spec.Divide(); err != nil {
		return err
	}
	r.set("field.divide_ms", 1e3*time.Since(start).Seconds(), "(one Spec.Divide of the serving fixture, all CPUs)")
	var hits, misses float64
	for _, b := range c.backends {
		hits += b.Registry().Counter(mCacheHits).Value()
		misses += b.Registry().Counter(mCacheMisses).Value()
	}
	r.set("fieldcache.hit_frac", ratio(hits, hits+misses), fmt.Sprintf("(%0.f hits, %.0f misses over the session creates)", hits, misses))
	r.set("bench.trace_overhead_frac", svcT.meanValue/svcU.meanValue-1, "(traced vs untraced nominal-rung mean service time)")
	setAbsent(r, "(not on the serve-open path)", "byz.overhead_us", "byz.suspect_precision", "byz.colluder_recall")
	// The server's own path: handler time not spent decoding, encoding,
	// deriving streams, sampling or in the backend's core localize span
	// is the admission queue and batcher. The core's parts come from the
	// replica instead, so the backend's core time they do not explain
	// (the batcher's wave wait among it) is left unattributed.
	serveSelfUs := 1e3*handlerMs - rep.decodeUs - rep.encodeUs - rep.deriveUs - rep.sampleUs - coreUs
	r.logf("core: backend span %.1f µs vs replica LocalizeGroup %.1f µs", coreUs, rep.coreUs)
	sumToTotal(r, []selfTime{
		{"http", 1e3 * (svcT.meanValue - proxyMs), true},
		{"cluster", 1e3 * (proxyMs - handlerMs), true},
		{"serve", serveSelfUs, true},
		{"wire", rep.decodeUs + rep.encodeUs, false},
		{"randx", rep.deriveUs, false},
		{"sampling", rep.sampleUs, true},
		{"vector", rep.vectorUs, false},
		{"match", rep.matchUs, false},
		{"core", rep.coreUs - rep.vectorUs - rep.matchUs, true},
	}, 1e3*svcU.meanValue, "untraced nominal-rung service time", false)
	return nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// serveReplica is the mean cost (µs) of each layer's public function
// re-run on a traced rung's inputs.
type serveReplica struct {
	n                            int
	streams                      float64
	deriveUs, sampleUs, vectorUs float64
	matchUs, decodeUs, encodeUs  float64
	coreUs                       float64 // LocalizeGroup on the sampled group
}

// replicateServe re-runs, per answered request of the rung, what the
// server did for it: the request-stream and sampler derivations, the
// sampling, the vector build, the match from the target's previous
// face, a serial tracker's LocalizeGroup on the sampled group, the body
// decode and the answer encode.
func replicateServe(cfg core.Config, plan *openPlan, rr *openRungRun) (serveReplica, error) {
	shared, err := core.New(cfg)
	if err != nil {
		return serveReplica{}, err
	}
	div := shared.Division()
	sampler := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes, Range: cfg.Range, Epsilon: cfg.Epsilon}
	m := &match.Heuristic{Div: div, Incremental: true}
	prev := map[targetKey]*field.Face{}
	trackers := map[targetKey]*core.Tracker{}
	var rep serveReplica
	var derive, sample, vec, mat, loc, dec, enc, streams float64
	var buf bytes.Buffer
	for i, o := range rr.out {
		if o.err != nil || o.status != http.StatusOK {
			continue
		}
		q := rr.reqs[i]
		var ew serve.EstimateWire
		if err := json.Unmarshal(o.body, &ew); err != nil {
			continue
		}
		root := randx.New(plan.seeds[q.sess])
		key := q.key()
		tr := trackers[key]
		if tr == nil {
			if tr, err = core.NewWithDivision(cfg, div); err != nil {
				return rep, err
			}
			trackers[key] = tr
		}

		t0 := time.Now()
		rs := serve.RequestStream(root, q.target, ew.Seq)
		rs.Split("loss")
		for node := 0; node < ew.Reported; node++ {
			rs.SplitN("node-noise", node)
		}
		t1 := time.Now()
		g := sampler.Sample(q.pos, cfg.SamplingTimes, serve.RequestStream(root, q.target, ew.Seq))
		t2 := time.Now()
		// The tracker runs before the vector and match replicas, as in
		// track-paper: a replica that ran first would leave the faces it
		// touched in cache for the tracker's own match.
		tr.LocalizeGroup(g)
		t3 := time.Now()
		v := g.Vector()
		t4 := time.Now()
		m.Match(v, prev[key])
		t5 := time.Now()
		var lw serve.LocalizeWire
		if err := json.NewDecoder(bytes.NewReader(q.body)).Decode(&lw); err != nil {
			return rep, err
		}
		t6 := time.Now()
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(ew); err != nil {
			return rep, err
		}
		t7 := time.Now()
		prev[key] = &div.Faces[ew.FaceID]

		rep.n++
		derive += float64(t1.Sub(t0))
		// t2−t1 covers RequestStream, the sampler's own derivations and
		// the sampling; t1−t0 covers the first two, so their difference
		// below is sampling's self time.
		sample += float64(t2.Sub(t1))
		loc += float64(t3.Sub(t2))
		vec += float64(t4.Sub(t3))
		mat += float64(t5.Sub(t4))
		dec += float64(t6.Sub(t5))
		enc += float64(t7.Sub(t6))
		streams += float64(2 + 1 + ew.Reported)
	}
	if rep.n == 0 {
		return rep, errNoSamples
	}
	n := float64(rep.n) * 1e3
	rep.streams = streams / float64(rep.n)
	rep.deriveUs = derive / n
	rep.sampleUs = sample/n - rep.deriveUs
	rep.vectorUs = vec / n
	rep.matchUs = mat / n
	rep.coreUs = loc / n
	rep.decodeUs = dec / n
	rep.encodeUs = enc / n
	return rep, nil
}
