package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fttt/internal/faults"
	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/match"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/sampling"
	"fttt/internal/vector"
)

// MultiTracker tracks several targets over one shared field division —
// the natural extension of FTTT to the multi-target setting when targets
// emit distinguishable signals (the outdoor system's fixed-frequency
// resonator generalises to one frequency per target, so sensors report
// per-target RSS separately). Each target keeps its own warm-start face;
// the expensive preprocessing (Sec. 4.3) is shared.
//
// A MultiTracker is safe for concurrent use: the target table is
// mutex-protected and each target's localizations are serialized on a
// per-target lock, so goroutines localizing distinct targets proceed in
// parallel while the shared Division is only ever read. LocalizeAll fans
// a whole batch across a worker pool; LocalizeBatch runs one as waves
// through a shared matching engine.
type MultiTracker struct {
	base   Config
	shared *Tracker // owns the division

	mu      sync.RWMutex
	targets map[string]*targetState

	// batchMu serializes the batched localization path: the engine below
	// holds every participating target's lock for the whole batch, and
	// one-at-a-time batches keep the multi-lock acquisition trivially
	// deadlock-free. It also guards the wave scratch.
	batchMu   sync.Mutex
	bm        *match.Heuristic
	pend      []waveLane
	laneVs    []vector.Vector
	lanePrevs []*field.Face
	laneWs    [][]float64
	laneRes   []match.Result
	metrics   *multiMetrics
}

// multiMetrics counts the batch engine's wave structure; resolved once
// in NewMulti like the tracker metrics.
type multiMetrics struct {
	waves *obs.Counter
	lanes *obs.Counter
}

// waveLane is one LocalizeBatch request between its round's begin and
// finish halves: the target's tracker, the request's slot and the open
// round.
type waveLane struct {
	tr  *Tracker
	req int
	round
}

// targetState is one target's tracker plus the lock serializing its
// localizations (Tracker is single-goroutine: warm-start face and matcher
// scratch).
type targetState struct {
	mu sync.Mutex
	tr *Tracker
}

// NewMulti preprocesses the division once and returns an empty
// multi-target tracker; targets are added lazily on first localization.
func NewMulti(cfg Config) (*MultiTracker, error) {
	shared, err := New(cfg)
	if err != nil {
		return nil, err
	}
	m := &MultiTracker{
		base:    cfg,
		shared:  shared,
		targets: make(map[string]*targetState),
	}
	if cfg.Obs != nil {
		m.metrics = &multiMetrics{
			waves: cfg.Obs.Counter("fttt_core_batch_waves_total"),
			lanes: cfg.Obs.Counter("fttt_core_batch_lanes_total"),
		}
	}
	return m, nil
}

// Targets returns the known target IDs in sorted order.
func (m *MultiTracker) Targets() []string {
	m.mu.RLock()
	ids := make([]string, 0, len(m.targets))
	for id := range m.targets {
		ids = append(ids, id)
	}
	m.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// target returns (creating if needed) the per-target state.
func (m *MultiTracker) target(targetID string) (*targetState, error) {
	if targetID == "" {
		return nil, fmt.Errorf("core: empty target ID")
	}
	m.mu.RLock()
	ts, ok := m.targets[targetID]
	m.mu.RUnlock()
	if ok {
		return ts, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts, ok = m.targets[targetID]; ok { // lost the create race
		return ts, nil
	}
	tr, err := NewWithDivision(m.base, m.shared.Division())
	if err != nil {
		return nil, err
	}
	ts = &targetState{tr: tr}
	m.targets[targetID] = ts
	return ts, nil
}

// LocalizeGroup matches one target's grouping sampling, warm-starting
// from that target's previous face. Calls for distinct targets may run
// concurrently; calls for the same target serialize.
func (m *MultiTracker) LocalizeGroup(targetID string, g *sampling.Group) (Estimate, error) {
	ts, err := m.target(targetID)
	if err != nil {
		return Estimate{}, err
	}
	ts.mu.Lock()
	est := ts.tr.LocalizeGroup(g)
	ts.mu.Unlock()
	return est, nil
}

// TargetPosition names one target's true position for a batch
// localization round.
type TargetPosition struct {
	ID  string
	Pos geom.Point
}

// LocalizeAll samples and localizes every target of the batch, fanning
// the work across a pool of workers (≤ 0 selects runtime.NumCPU(); 1 is
// serial). Target i draws its sampling noise from the substream
// rng.Split(batch[i].ID), so the estimates are identical for every worker
// count and schedule — and identical to localizing each target alone with
// the same substream. IDs should be unique within one batch; duplicates
// are localized serially in unspecified relative order.
func (m *MultiTracker) LocalizeAll(batch []TargetPosition, rng *randx.Stream, workers int) (map[string]Estimate, error) {
	states := make([]*targetState, len(batch))
	streams := make([]*randx.Stream, len(batch))
	for i, tp := range batch {
		ts, err := m.target(tp.ID)
		if err != nil {
			return nil, err
		}
		states[i] = ts
		streams[i] = rng.Split(tp.ID)
	}
	ests := make([]Estimate, len(batch))
	fanOut(len(batch), workers, func(i int) {
		ts := states[i]
		ts.mu.Lock()
		ests[i] = ts.tr.Localize(batch[i].Pos, streams[i])
		ts.mu.Unlock()
	})
	out := make(map[string]Estimate, len(batch))
	for i, tp := range batch {
		out[tp.ID] = ests[i]
	}
	return out, nil
}

// LocalizeRequest is one entry of a heterogeneous LocalizeBatch round:
// a target ID plus either an externally collected grouping sampling
// (Group non-nil) or a true position to sample, with the request's own
// noise substream. Unlike LocalizeAll, requests carry explicit streams,
// so the same target may appear several times in one batch — its
// requests execute serially in slice order, which is what a serving
// batcher needs to keep batched execution byte-identical to serial.
type LocalizeRequest struct {
	// ID names the target; must be non-empty.
	ID string
	// Group, when non-nil, is matched directly (the report-ingestion
	// path); Pos and Rng are ignored.
	Group *sampling.Group
	// Pos is the true target position to sample when Group is nil.
	Pos geom.Point
	// Rng drives the sampling noise when Group is nil; required then.
	Rng *randx.Stream
	// Span, when valid, is the request's trace context: the round span
	// parents under it and the batch span links to it, so one serving
	// request yields a full causal tree (DESIGN.md §12). Zero is fine —
	// the round then starts its own trace (or none, with no recorder).
	Span obs.SpanRef
}

// LocalizeBatch localizes a heterogeneous batch of requests. Request
// i's estimate lands in slot i of the result; requests for the same
// target execute serially in slice order. Because each request consumes
// only its own stream and per-target order is preserved, the results
// are byte-identical for every worker count and batch split — equal to
// executing the requests one at a time in slice order. This is the
// primitive the serving micro-batcher (internal/serve) coalesces
// concurrent localize calls into.
//
// The batch executes as waves: one pending request per target per wave
// runs its sampling, then a single MatchBatch pass of the shared
// matching engine scores every wave lane's first match — the same
// engine and configuration every target's tracker matches with, and
// lanes are independent — and each lane then completes its round
// (degradation retries use the lane's own tracker).
func (m *MultiTracker) LocalizeBatch(reqs []LocalizeRequest) ([]Estimate, error) {
	states := make(map[string]*targetState, len(reqs))
	order := make([]string, 0, len(reqs))
	byTarget := make(map[string][]int, len(reqs))
	for i, r := range reqs {
		if r.Group == nil && r.Rng == nil {
			return nil, fmt.Errorf("core: request %d (%q) has neither Group nor Rng", i, r.ID)
		}
		if _, ok := states[r.ID]; !ok {
			ts, err := m.target(r.ID)
			if err != nil {
				return nil, err
			}
			states[r.ID] = ts
			order = append(order, r.ID)
		}
		byTarget[r.ID] = append(byTarget[r.ID], i)
	}
	ests := make([]Estimate, len(reqs))
	// The batch span records how the micro-batcher coalesced this round
	// and links each member request's span, tying the per-request causal
	// trees to the execution that actually served them. rec is shared by
	// every per-target clone (they all take it from base.Tracer).
	rec := m.shared.rec
	batchSpan := rec.Start(obs.SpanRef{}, "core", "localize_batch")
	if rec != nil {
		batchSpan.Attr("requests", float64(len(reqs)))
		batchSpan.Attr("targets", float64(len(order)))
		for i := range reqs {
			rec.Link(batchSpan.Ref(), reqs[i].Span)
		}
	}
	m.localizeBatchWaves(reqs, states, order, byTarget, ests)
	batchSpan.End()
	return ests, nil
}

// localizeBatchWaves executes the batch through the shared matching
// engine. Requests are organized into waves holding at most one
// request per target (per-target FIFO preserved: wave w takes each
// target's w-th request), because a request's completion phase can
// mutate per-target state the target's next request must observe — the
// fault clock a degraded retry advances, the warm-start face, the
// estimate history. Lanes of one wave belong to distinct targets, so
// their rounds' begin halves can run back to back, one central
// MatchBatch pass scores every lane, and each lane's finish half then
// closes its round exactly as the serial entry points do. Every target
// lock is held for the whole batch; batchMu keeps multi-lock
// acquisition single-flight (single-lock callers like LocalizeGroup
// cannot form a cycle against it).
func (m *MultiTracker) localizeBatchWaves(reqs []LocalizeRequest, states map[string]*targetState, order []string, byTarget map[string][]int, ests []Estimate) {
	m.batchMu.Lock()
	defer m.batchMu.Unlock()
	if m.bm == nil {
		m.bm = newMatcher(m.base, m.shared.Division())
	}
	for _, id := range order {
		states[id].mu.Lock()
	}
	defer func() {
		for _, id := range order {
			states[id].mu.Unlock()
		}
	}()
	pend, vs, prevs, ws := m.pend, m.laneVs, m.lanePrevs, m.laneWs
	for wave := 0; ; wave++ {
		pend, vs, prevs, ws = pend[:0], vs[:0], prevs[:0], ws[:0]
		for _, id := range order {
			ris := byTarget[id]
			if wave >= len(ris) {
				continue
			}
			tr, ri := states[id].tr, ris[wave]
			pend = append(pend, waveLane{tr: tr, req: ri, round: tr.begin(&reqs[ri])})
			p := &pend[len(pend)-1]
			vs = append(vs, p.v)
			prevs = append(prevs, p.prev)
			ws = append(ws, p.w)
		}
		if len(pend) == 0 {
			break
		}
		// Weighted lanes (a defense with active suspects) take the float
		// kernel; nil-weight lanes are plain unweighted matches.
		m.laneRes = m.bm.MatchBatch(m.laneRes[:0], vs, prevs, ws)
		for i := range pend {
			p := &pend[i]
			ests[p.req] = p.tr.finish(&p.round, m.laneRes[i], nil)
		}
		if m.metrics != nil {
			m.metrics.waves.Inc()
			m.metrics.lanes.Add(float64(len(pend)))
		}
	}
	m.pend, m.laneVs, m.lanePrevs, m.laneWs = pend, vs, prevs, ws
}

// FaultScheduler exposes one target's fault scheduler (created on first
// use like the target itself; nil when no FaultScript is configured).
// Callers driving per-request batches directly can Seek it to their own
// virtual time between requests, exactly like Track does serially.
func (m *MultiTracker) FaultScheduler(targetID string) (*faults.Scheduler, error) {
	ts, err := m.target(targetID)
	if err != nil {
		return nil, err
	}
	return ts.tr.faults, nil
}

// Division exposes the shared preprocessed division.
func (m *MultiTracker) Division() *field.Division {
	return m.shared.Division()
}

// fanOut runs job(0..n-1) on a pool of workers (≤ 0 selects
// runtime.NumCPU(), capped at n; 1 runs inline). Jobs are claimed from an
// atomic counter, so every job runs exactly once.
func fanOut(n, workers int, job func(i int)) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}
