package faults

import (
	"math"
	"sort"

	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/sampling"
	"fttt/internal/wsnnet"
)

// Scheduler executes one Script against a deployment of n nodes. It
// implements both injection hooks — wsnnet.FaultInjector for the
// network substrate and sampling.SampleFaults for the ideal sampler —
// so the same scenario drives either collection path.
//
// A Scheduler is single-goroutine, like core.Tracker: it owns mutable
// timeline state (event cursor, channel states, crash bookkeeping).
// Parallel runs build one Scheduler per goroutine from the same
// (script, n, seed) triple; construction is cheap and the triple fully
// determines every draw, so replicas stay in lockstep.
type Scheduler struct {
	script Script
	n      int
	now    float64

	// cursor indexes the first unapplied event (Events are time-sorted).
	cursor int
	// crashed[i] marks node i fault-crashed; recoverAt[i] is when the
	// pending reboot completes (+Inf when the crash is permanent).
	crashed   []bool
	recoverAt []float64
	// killed[i] records that this scheduler killed node i in the
	// network, so BeginRound only revives its own victims.
	killed []bool
	// scale[i] is node i's energy-drain multiplier (1 = nominal).
	scale []float64
	// driftRate[i] (dB/s) and skewBias[i] (dB) are the continuous
	// per-node calibration faults, drawn once at construction.
	driftRate []float64
	skewBias  []float64
	// geBad[i] is node i's Gilbert–Elliott channel state.
	geBad []bool

	// Adversarial per-node state (DESIGN.md §15). All of it feeds the
	// PerturbRSS composition, which draws no randomness — arming any of
	// these behaviors never shifts the benign noise streams.
	//
	// spoofBias[i] is an additive RSS offset; spoofFixedOn[i] replaces
	// node i's RSS with spoofFixedVal[i] outright.
	spoofBias     []float64
	spoofFixedOn  []bool
	spoofFixedVal []float64
	// invertOn[i] mirrors node i's RSS around invertPivot[i] (NaN selects
	// the deployment-scale default at perturbation time).
	invertOn    []bool
	invertPivot []float64
	// colludeOn[i] makes node i report the RSS of a target at its decoy.
	colludeOn      []bool
	decoyX, decoyY []float64
	// nodes/model are the optional deployment geometry (SetGeometry) the
	// Collude behavior needs to synthesize decoy-consistent RSS.
	nodes   []geom.Point
	model   rf.Model
	hasGeom bool

	// events is the substream that picks fraction-targeted node sets;
	// event idx always draws from SplitN("event", idx) so application
	// order cannot perturb the selection.
	events *randx.Stream
}

// Interface conformance: one scheduler serves both collection paths.
var (
	_ wsnnet.FaultInjector  = (*Scheduler)(nil)
	_ sampling.SampleFaults = (*Scheduler)(nil)
)

// New builds a Scheduler for a deployment of n nodes. The seed roots
// every random choice the scenario makes (crash-set selection, drift
// slopes, skew offsets); the same (script, n, seed) always yields the
// same fault timeline.
func New(script Script, n int, seed uint64) *Scheduler {
	s := &Scheduler{
		script:        script,
		n:             n,
		crashed:       make([]bool, n),
		recoverAt:     make([]float64, n),
		killed:        make([]bool, n),
		scale:         make([]float64, n),
		driftRate:     make([]float64, n),
		skewBias:      make([]float64, n),
		geBad:         make([]bool, n),
		spoofBias:     make([]float64, n),
		spoofFixedOn:  make([]bool, n),
		spoofFixedVal: make([]float64, n),
		invertOn:      make([]bool, n),
		invertPivot:   make([]float64, n),
		colludeOn:     make([]bool, n),
		decoyX:        make([]float64, n),
		decoyY:        make([]float64, n),
	}
	root := randx.New(seed).Split("faults")
	s.events = root.Split("events")
	for i := range s.recoverAt {
		s.recoverAt[i] = math.Inf(1)
		s.scale[i] = 1
	}
	if d := script.Drift; d != nil && d.Sigma > 0 {
		dr := root.Split("drift")
		for i := range s.driftRate {
			s.driftRate[i] = dr.SplitN("node", i).Normal(0, d.Sigma)
		}
	}
	if k := script.Skew; k != nil && k.Max > 0 {
		slew := k.Slew
		if slew == 0 {
			slew = 20 // dB/s: a target crossing a mote's near field
		}
		sk := root.Split("skew")
		for i := range s.skewBias {
			s.skewBias[i] = sk.SplitN("node", i).Uniform(-k.Max, k.Max) * slew
		}
	}
	// The timeline starts at t=0 with t=0 events already applied, so
	// callers that never Seek still see the scenario's initial state.
	s.Seek(0)
	return s
}

// Now returns the scheduler's current virtual time.
func (s *Scheduler) Now() float64 { return s.now }

// Crashed reports whether node i is currently fault-crashed.
func (s *Scheduler) Crashed(i int) bool { return s.crashed[i] }

// Seek advances the scenario to virtual time now, applying every event
// scheduled at or before it and completing due recoveries. Seek is
// monotonic: an earlier time than the current one is a no-op, so
// callers can seek freely from loops that revisit a round.
func (s *Scheduler) Seek(now float64) {
	if now < s.now {
		return
	}
	s.now = now
	for s.cursor < len(s.script.Events) && s.script.Events[s.cursor].At <= now {
		s.apply(s.cursor)
		s.cursor++
	}
	for i := 0; i < s.n; i++ {
		if s.crashed[i] && s.recoverAt[i] <= now {
			s.crashed[i] = false
			s.recoverAt[i] = math.Inf(1)
		}
	}
}

// apply executes script event idx.
func (s *Scheduler) apply(idx int) {
	ev := s.script.Events[idx]
	for _, i := range s.targets(idx, ev) {
		if i >= s.n {
			continue // script written for a larger deployment
		}
		switch ev.Kind {
		case Crash:
			s.crashed[i] = true
			if ev.RecoverAt > ev.At {
				s.recoverAt[i] = ev.RecoverAt
			} else {
				s.recoverAt[i] = math.Inf(1)
			}
		case Revive:
			s.crashed[i] = false
			s.recoverAt[i] = math.Inf(1)
		case Drain:
			s.scale[i] = ev.Factor
		case Spoof:
			if ev.Fixed != nil {
				s.spoofFixedOn[i] = true
				s.spoofFixedVal[i] = *ev.Fixed
				s.spoofBias[i] = 0
			} else {
				s.spoofBias[i] += ev.Bias // later spoofs stack their biases
			}
		case Invert:
			s.invertOn[i] = true
			if ev.Pivot != nil {
				s.invertPivot[i] = *ev.Pivot
			} else {
				s.invertPivot[i] = math.NaN() // deployment default, resolved lazily
			}
		case Collude:
			s.colludeOn[i] = true
			s.decoyX[i] = ev.DecoyX
			s.decoyY[i] = ev.DecoyY
		}
	}
}

// targets resolves an event's node set: the explicit list, or a
// deterministic Fraction-sized draw from the event's own substream.
func (s *Scheduler) targets(idx int, ev Event) []int {
	if len(ev.Nodes) > 0 {
		return ev.Nodes
	}
	count := int(math.Round(ev.Fraction * float64(s.n)))
	if count <= 0 {
		return nil
	}
	if count > s.n {
		count = s.n
	}
	perm := s.events.SplitN("event", idx).Perm(s.n)
	picked := append([]int(nil), perm[:count]...)
	sort.Ints(picked)
	return picked
}

// BeginRound implements wsnnet.FaultInjector: it seeks the scenario to
// the round's virtual time and syncs the network's liveness and energy
// scaling with the scheduler's view. Only nodes this scheduler crashed
// are ever revived, so battery deaths and external Kill calls stand.
func (s *Scheduler) BeginRound(net *wsnnet.Network, now float64) {
	s.Seek(now)
	for i := 0; i < s.n; i++ {
		switch {
		case s.crashed[i]:
			net.Kill(i)
			s.killed[i] = true
		case s.killed[i]:
			net.Revive(i)
			s.killed[i] = false
		}
		net.SetEnergyScale(i, s.scale[i])
	}
}

// HopLost implements wsnnet.FaultInjector: the Gilbert–Elliott channel
// of the transmitting node evolves one step per transmission, and the
// bad state substitutes Burst.BadLoss for the substrate's base loss.
// Without an active burst process it reduces to the base Bernoulli.
func (s *Scheduler) HopLost(tx, rx int, base float64, rng *randx.Stream) bool {
	p := base
	if b := s.script.Burst; b != nil && s.now >= b.From && tx >= 0 && tx < s.n {
		if s.geBad[tx] {
			if rng.Bernoulli(b.PBadToGood) {
				s.geBad[tx] = false
			}
		} else if rng.Bernoulli(b.PGoodToBad) {
			s.geBad[tx] = true
		}
		if s.geBad[tx] {
			p = b.BadLoss
		}
	}
	return rng.Bernoulli(p)
}

// DropReport implements sampling.SampleFaults: crashed nodes never
// report, and the burst channel — collapsed to a single end-to-end
// draw, since the ideal sampler has no hops — suppresses reports while
// the node's channel sits in the bad state.
func (s *Scheduler) DropReport(node int, rng *randx.Stream) bool {
	if node < 0 || node >= s.n {
		return false
	}
	if s.crashed[node] {
		return true
	}
	if b := s.script.Burst; b != nil && s.now >= b.From {
		if s.geBad[node] {
			if rng.Bernoulli(b.PBadToGood) {
				s.geBad[node] = false
			}
		} else if rng.Bernoulli(b.PGoodToBad) {
			s.geBad[node] = true
		}
		if s.geBad[node] {
			return rng.Bernoulli(b.BadLoss)
		}
	}
	return false
}

// SetGeometry attaches the deployment geometry — node positions and the
// RF model — that the Collude behavior needs to synthesize the RSS a
// target at the decoy point would produce (and that Invert uses to pick
// its default mirror pivot). core.NewWithDivision calls it automatically;
// schedulers without geometry degrade gracefully (see colludeRSS).
// Geometry never influences random draws, so setting it preserves the
// draw-conservation contract.
func (s *Scheduler) SetGeometry(nodes []geom.Point, model rf.Model) {
	s.nodes = nodes
	s.model = model
	s.hasGeom = len(nodes) > 0
}

// Colluding reports whether node i is currently executing the Collude
// behavior (reporting decoy-consistent RSS instead of measurements).
// Experiment harnesses use it as the detection ground truth when scoring
// a defense's suspect list against the scripted adversary set.
func (s *Scheduler) Colluding(i int) bool {
	return i >= 0 && i < s.n && s.colludeOn[i]
}

// defaultPivot is the Invert mirror point when the script gives none:
// the model's mean RSS at a mid-range sensing distance (20 m) when the
// geometry is known, else a plausible constant for the default model.
func (s *Scheduler) defaultPivot() float64 {
	if s.hasGeom {
		return s.model.MeanRSS(20)
	}
	return -55
}

// colludeRSS is the RSS colluding node i reports: what it would measure
// with the target sitting at the decoy point. Without geometry the
// colluders fall back to a fixed strong RSS — still a coordinated lie,
// just not a geometrically consistent one.
func (s *Scheduler) colludeRSS(node int) float64 {
	if !s.hasGeom || node >= len(s.nodes) {
		return -30
	}
	d := s.nodes[node].Dist(geom.Pt(s.decoyX[node], s.decoyY[node]))
	return s.model.MeanRSS(d)
}

// PerturbRSS implements both hooks' RSS corruption. The benign
// calibration faults apply first (linear drift slope_i·t plus the
// clock-skew bias), then the adversarial transformations in a fixed
// composition order: fixed spoof replaces, bias spoof adds, invert
// mirrors around its pivot, and collude — a full takeover of the node's
// radio front-end — overrides everything with the decoy-consistent
// value. The whole chain is a pure function of (node, rss, virtual
// time): no randomness is consumed, so adversarial scripts never shift
// the benign noise streams (the draw-conservation contract).
func (s *Scheduler) PerturbRSS(node int, rss float64) float64 {
	if node < 0 || node >= s.n {
		return rss
	}
	rss += s.driftRate[node]*s.now + s.skewBias[node]
	if s.spoofFixedOn[node] {
		rss = s.spoofFixedVal[node]
	}
	rss += s.spoofBias[node]
	if s.invertOn[node] {
		p := s.invertPivot[node]
		if math.IsNaN(p) {
			p = s.defaultPivot()
		}
		rss = 2*p - rss
	}
	if s.colludeOn[node] {
		rss = s.colludeRSS(node)
	}
	return rss
}
