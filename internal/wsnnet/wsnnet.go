// Package wsnnet simulates the wireless sensor network substrate that
// carried FTTT's reports in the paper's outdoor system (Fig. 13): motes
// sample the target's signal, build report packets and forward them hop
// by hop to a base station over a unit-disk radio graph with per-hop
// delay, loss and a first-order radio energy model.
//
// This package is the documented substitution for the Crossbow IRIS +
// MIB520 hardware (DESIGN.md §2): the tracking algorithms only ever see
// which reports reached the base station and what RSS values they carry,
// which is exactly what CollectRound reproduces.
package wsnnet

import (
	"fmt"
	"math"

	"fttt/internal/desim"
	"fttt/internal/geom"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/sampling"
)

// Config parameterises the network substrate.
type Config struct {
	// Nodes are the sensor positions in ID order.
	Nodes []geom.Point
	// BaseStation is where reports are collected.
	BaseStation geom.Point
	// Model generates the target-signal RSS (eq. 1).
	Model rf.Model
	// SensingRange is R: nodes farther from the target do not hear it.
	// Zero disables the limit.
	SensingRange float64
	// CommRange is the radio range between motes (and to the base
	// station); it defines the unit-disk forwarding graph.
	CommRange float64
	// HopLoss is the probability that one hop's transmission is lost.
	HopLoss float64
	// HopDelay is the per-hop forwarding latency in seconds.
	HopDelay float64
	// ReportBits is the payload size of one report packet in bits.
	ReportBits float64
	// Epsilon is the motes' sensing resolution ε, copied into every
	// collected Group.
	Epsilon float64
	// InitialEnergy is each mote's starting battery in joules; 0 means
	// unmetered (energy is tracked but never exhausts).
	InitialEnergy float64
	// ContentionSlots models a slotted contention MAC: every reporting
	// node picks a uniform slot in [0, ContentionSlots); two nodes on
	// the same slot within interference range (2·CommRange) collide and
	// both rounds' reports are lost. 0 disables contention (ideal MAC).
	// Clustered collection gives cluster members TDMA slots (collision
	// free) with only heads contending — the clustering benefit [28].
	ContentionSlots int
	// Obs, when non-nil, receives the substrate's metrics (reports
	// heard/delivered/lost, hop counts, delivery latency, collisions,
	// energy drained per mote, dead motes — DESIGN.md §"Telemetry").
	Obs *obs.Registry
	// Tracer, when non-nil, is the flight recorder that receives a root
	// span per collection round and a free-standing event per
	// lost/unroutable/collided report (DESIGN.md §12).
	Tracer *obs.Recorder
	// Faults, when non-nil, injects scripted failures into every
	// collection round (nil-is-off, like Obs): crash/revive and battery
	// drain at round start, burst loss per hop, calibration drift per
	// sample. internal/faults provides the deterministic scenario-script
	// implementation (DESIGN.md §9).
	Faults FaultInjector
}

// FaultInjector intercepts the substrate's failure processes; it is
// consulted only when Config.Faults is non-nil.
type FaultInjector interface {
	// BeginRound runs once per collection round at virtual time now,
	// before any sensing: crash or revive motes, rescale batteries.
	BeginRound(n *Network, now float64)
	// HopLost decides whether the transmission tx→rx is lost; rx is -1
	// when the receiver is the base station. base is the configured
	// HopLoss and rng the round's loss substream — implementations
	// without an opinion must return rng.Bernoulli(base) so the draw
	// sequence stays aligned with the uninjected run.
	HopLost(tx, rx int, base float64, rng *randx.Stream) bool
	// PerturbRSS adjusts mote node's raw RSS sample (calibration drift,
	// clock-skew slew).
	PerturbRSS(node int, rss float64) float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Nodes) < 1 {
		return fmt.Errorf("wsnnet: need at least one node")
	}
	if c.CommRange <= 0 {
		return fmt.Errorf("wsnnet: CommRange must be positive, got %v", c.CommRange)
	}
	if c.HopLoss < 0 || c.HopLoss >= 1 {
		return fmt.Errorf("wsnnet: HopLoss must be in [0,1), got %v", c.HopLoss)
	}
	if c.HopDelay < 0 {
		return fmt.Errorf("wsnnet: HopDelay must be non-negative, got %v", c.HopDelay)
	}
	return c.Model.Validate()
}

// First-order radio energy model constants (per bit and per bit·m²),
// the standard values used throughout the WSN literature, plus the
// sensing cost of one RSS sample.
const (
	elecEnergyPerBit = 50e-9   // J/bit for TX/RX electronics
	ampEnergyPerBit  = 100e-12 // J/(bit·m²) for the TX amplifier
	sampleEnergy     = 2e-6    // J per RSS sample (ADC + radio listen)
)

// Network is a ready-to-run substrate instance.
type Network struct {
	cfg    Config
	engine *desim.Engine
	// Energy[i] is node i's consumed energy in joules.
	Energy []float64
	// Alive[i] reports whether node i still has battery (always true
	// when InitialEnergy == 0).
	Alive []bool
	// nextHop[i] is the precomputed greedy-geographic next hop of node i
	// toward the base station: -1 means deliver directly (BS in range),
	// -2 means stuck in a greedy routing void.
	nextHop []int
	// bfsNext[i] is the rescue next hop from a BFS (shortest-hop) tree
	// rooted at the base station over the full unit-disk graph: when the
	// greedy rule voids, forwarding falls back to this tree — the
	// route-discovery detour real stacks perform. -1 delivers directly,
	// -2 means truly disconnected.
	bfsNext []int
	// energyScale[i] multiplies node i's energy debits (1 = nominal);
	// fault injection uses it for accelerated battery depletion. Nil
	// until SetEnergyScale first deviates from nominal.
	energyScale []float64
	metrics     *netMetrics
}

// netMetrics caches the substrate metric handles, resolved once at New.
type netMetrics struct {
	rounds     *obs.Counter
	heard      *obs.Counter
	delivered  *obs.Counter
	lostHops   *obs.Counter
	voids      *obs.Counter
	deadRelays *obs.Counter
	collisions *obs.Counter
	asleep     *obs.Counter
	deadSkips  *obs.Counter
	hops       *obs.Histogram
	latency    *obs.Histogram
	energy     *obs.Counter
	deadMotes  *obs.Gauge
	// moteEnergy[i] mirrors Energy[i] as a labelled gauge series.
	moteEnergy []*obs.Gauge
}

func newNetMetrics(r *obs.Registry, n int) *netMetrics {
	m := &netMetrics{
		rounds:     r.Counter("fttt_net_rounds_total"),
		heard:      r.Counter("fttt_net_reports_heard_total"),
		delivered:  r.Counter("fttt_net_reports_delivered_total"),
		lostHops:   r.Counter("fttt_net_reports_lost_total"),
		voids:      r.Counter("fttt_net_reports_void_total"),
		deadRelays: r.Counter("fttt_net_reports_dead_relay_total"),
		collisions: r.Counter("fttt_net_collisions_total"),
		asleep:     r.Counter("fttt_net_reports_asleep_total"),
		deadSkips:  r.Counter("fttt_net_reports_dead_total"),
		hops:       r.Histogram("fttt_net_report_hops", obs.LinearBuckets(1, 1, 12)),
		latency:    r.Histogram("fttt_net_delivery_latency_seconds", obs.ExpBuckets(1e-4, 2, 16)),
		energy:     r.Counter("fttt_net_energy_joules_total"),
		deadMotes:  r.Gauge("fttt_net_dead_motes"),
		moteEnergy: make([]*obs.Gauge, n),
	}
	for i := range m.moteEnergy {
		m.moteEnergy[i] = r.Gauge(fmt.Sprintf("fttt_net_mote_energy_joules{mote=%q}", fmt.Sprint(i)))
	}
	return m
}

// New validates the config and precomputes the forwarding graph.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		cfg:    cfg,
		engine: &desim.Engine{},
		Energy: make([]float64, len(cfg.Nodes)),
		Alive:  make([]bool, len(cfg.Nodes)),
	}
	for i := range n.Alive {
		n.Alive[i] = true
	}
	n.nextHop = make([]int, len(cfg.Nodes))
	for i, p := range cfg.Nodes {
		n.nextHop[i] = n.greedyNextHop(i, p)
	}
	n.buildBFSTree()
	if cfg.Obs != nil {
		n.metrics = newNetMetrics(cfg.Obs, len(cfg.Nodes))
	}
	return n, nil
}

// buildBFSTree computes shortest-hop rescue routes from every node to the
// base station over the unit-disk graph.
func (n *Network) buildBFSTree() {
	nn := len(n.cfg.Nodes)
	n.bfsNext = make([]int, nn)
	for i := range n.bfsNext {
		n.bfsNext[i] = -2
	}
	// Frontier 0: nodes hearing the BS directly.
	var frontier []int
	for i, p := range n.cfg.Nodes {
		if p.Dist(n.cfg.BaseStation) <= n.cfg.CommRange {
			n.bfsNext[i] = -1
			frontier = append(frontier, i)
		}
	}
	for len(frontier) > 0 {
		var next []int
		for _, u := range frontier {
			for v, q := range n.cfg.Nodes {
				if n.bfsNext[v] != -2 || v == u {
					continue
				}
				if q.Dist(n.cfg.Nodes[u]) <= n.cfg.CommRange {
					n.bfsNext[v] = u
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
}

// greedyNextHop picks the neighbor strictly closer to the base station,
// preferring the closest; -1 delivers directly; -2 marks a void.
func (n *Network) greedyNextHop(i int, p geom.Point) int {
	bs := n.cfg.BaseStation
	if p.Dist(bs) <= n.cfg.CommRange {
		return -1
	}
	best, bestDist := -2, p.Dist(bs)
	for j, q := range n.cfg.Nodes {
		if j == i || p.Dist(q) > n.cfg.CommRange {
			continue
		}
		if d := q.Dist(bs); d < bestDist {
			best, bestDist = j, d
		}
	}
	return best
}

// Engine exposes the virtual clock for callers that interleave other
// events.
func (n *Network) Engine() *desim.Engine { return n.engine }

// PathTo returns the forwarding path from node i to the base station as a
// node-ID list (excluding the BS), and ok=false if i is disconnected.
// Greedy geographic forwarding is used while it makes progress; when it
// voids, the remainder of the path follows the BFS rescue tree.
func (n *Network) PathTo(i int) (path []int, ok bool) {
	rescued := false
	for hop := i; ; {
		path = append(path, hop)
		next := n.nextHop[hop]
		if rescued || next == -2 {
			rescued = true
			next = n.bfsNext[hop]
		}
		switch next {
		case -1:
			return path, true
		case -2:
			return path, false
		}
		if len(path) > len(n.cfg.Nodes) {
			return path, false // defensive: cycle
		}
		hop = next
	}
}

// RoundStats summarises one collection round.
type RoundStats struct {
	// Heard is how many nodes sensed the target.
	Heard int
	// Delivered is how many reports reached the base station.
	Delivered int
	// LostHops is how many reports died to per-hop loss.
	LostHops int
	// Voids is how many reports could not be routed to the base station:
	// greedy+BFS routing dead ends, plus reports stranded at a relay
	// that died after the forwarding trees were built (the DeadRelays
	// subset).
	Voids int
	// DeadRelays is how many of the Voids were reports dropped at a
	// dead relay mid-path.
	DeadRelays int
	// Dead is how many sensing nodes had exhausted batteries.
	Dead int
	// Asleep is how many in-range nodes were duty-cycled off this round
	// (CollectRoundFocused only).
	Asleep int
	// Collisions is how many reports died to MAC contention.
	Collisions int
	// MaxLatency is the slowest delivered report's network latency in
	// seconds.
	MaxLatency float64
	// EnergySpent is the total energy consumed this round in joules.
	EnergySpent float64
}

// Accumulate folds another round's stats into s (counters add,
// MaxLatency takes the maximum) — used when a degraded round's
// re-collection retry merges two collections into one Update.
func (s *RoundStats) Accumulate(o RoundStats) {
	s.Heard += o.Heard
	s.Delivered += o.Delivered
	s.LostHops += o.LostHops
	s.Voids += o.Voids
	s.DeadRelays += o.DeadRelays
	s.Dead += o.Dead
	s.Asleep += o.Asleep
	s.Collisions += o.Collisions
	if o.MaxLatency > s.MaxLatency {
		s.MaxLatency = o.MaxLatency
	}
	s.EnergySpent += o.EnergySpent
}

// CollectRound runs one localization round at the current virtual time:
// every alive node within sensing range of target samples k RSS values
// and forwards a report to the base station. The returned Group contains
// exactly the reports that arrived — lost or unroutable reports leave
// their node in N̄_r, feeding FTTT's fault-tolerance rules (eq. 6).
func (n *Network) CollectRound(target geom.Point, k int, rng *randx.Stream) (*sampling.Group, RoundStats) {
	return n.collectRound(target, k, rng, nil)
}

// CollectRoundFocused is CollectRound with duty cycling: only nodes
// within wakeRadius of the focus point (typically the previous location
// estimate inflated by the target's maximum displacement) stay awake;
// the rest sleep through the round, spending nothing but also not
// reporting. Tracking-driven wake-up is the standard energy lever in
// target-tracking WSNs; the DutyCycling experiment quantifies the
// energy/accuracy trade.
func (n *Network) CollectRoundFocused(target, focus geom.Point, wakeRadius float64, k int, rng *randx.Stream) (*sampling.Group, RoundStats) {
	awake := func(i int) bool {
		return n.cfg.Nodes[i].Dist(focus) <= wakeRadius
	}
	return n.collectRound(target, k, rng, awake)
}

func (n *Network) collectRound(target geom.Point, k int, rng *randx.Stream, awake func(i int) bool) (*sampling.Group, RoundStats) {
	sp := n.cfg.Tracer.Start(obs.SpanRef{}, "wsnnet", "collect_round")
	if f := n.cfg.Faults; f != nil {
		f.BeginRound(n, n.engine.Now())
	}
	nn := len(n.cfg.Nodes)
	g := &sampling.Group{
		RSS:      make([][]float64, k),
		Reported: make([]bool, nn),
		Epsilon:  n.cfg.Epsilon,
	}
	for t := range g.RSS {
		g.RSS[t] = make([]float64, nn)
	}
	var stats RoundStats
	energyBefore := total(n.Energy)
	loss := rng.Split("hop-loss")
	collided := n.contention(target, awake, rng)

	for i, p := range n.cfg.Nodes {
		if n.cfg.SensingRange > 0 && p.Dist(target) > n.cfg.SensingRange {
			continue
		}
		stats.Heard++
		if awake != nil && !awake(i) {
			stats.Asleep++
			continue
		}
		if !n.Alive[i] {
			stats.Dead++
			continue
		}
		if collided[i] {
			// The report was transmitted (energy spent) but destroyed by
			// a same-slot neighbor.
			n.spend(i, sampleEnergy*float64(k)+txEnergy(n.cfg.ReportBits, n.cfg.CommRange))
			stats.Collisions++
			n.cfg.Tracer.RecordEvent(obs.SpanRef{}, "wsnnet", "report_collided", float64(i))
			continue
		}
		// Sample the target's signal (shadowing constant within the
		// group, fast noise per instant — see rf.Model.FastFraction).
		nodeRng := rng.SplitN("node-noise", i)
		d := p.Dist(target)
		n.spend(i, sampleEnergy*float64(k))
		mean := n.cfg.Model.MeanRSS(d) + nodeRng.Normal(0, n.cfg.Model.SigmaSlow())
		sf := n.cfg.Model.SigmaFast()
		samples := make([]float64, k)
		for t := 0; t < k; t++ {
			samples[t] = mean + nodeRng.Normal(0, sf)
		}
		if f := n.cfg.Faults; f != nil {
			for t := range samples {
				samples[t] = f.PerturbRSS(i, samples[t])
			}
		}
		// Forward the report hop by hop.
		path, routable := n.PathTo(i)
		if !routable {
			stats.Voids++
			n.cfg.Tracer.RecordEvent(obs.SpanRef{}, "wsnnet", "report_void", float64(i))
			continue
		}
		outcome, latency := n.forward(path, n.cfg.ReportBits, loss)
		switch outcome {
		case fwdDeadRelay:
			stats.Voids++
			stats.DeadRelays++
			n.cfg.Tracer.RecordEvent(obs.SpanRef{}, "wsnnet", "report_dead_relay", float64(i))
			continue
		case fwdLostHop:
			stats.LostHops++
			n.cfg.Tracer.RecordEvent(obs.SpanRef{}, "wsnnet", "report_lost", float64(i))
			continue
		}
		stats.Delivered++
		if m := n.metrics; m != nil {
			m.hops.Observe(float64(len(path)))
			m.latency.Observe(latency)
		}
		if latency > stats.MaxLatency {
			stats.MaxLatency = latency
		}
		g.Reported[i] = true
		for t := 0; t < k; t++ {
			g.RSS[t][i] = samples[t]
		}
	}
	// Advance the virtual clock past the slowest delivery.
	if stats.MaxLatency > 0 {
		n.engine.ScheduleIn(stats.MaxLatency, func() {})
		n.engine.Run()
	}
	stats.EnergySpent = total(n.Energy) - energyBefore
	n.recordRound(stats)
	sp.End()
	return g, stats
}

// fwdOutcome is the fate of one packet pushed along a forwarding path.
type fwdOutcome int

const (
	fwdDelivered fwdOutcome = iota
	fwdLostHop
	fwdDeadRelay
)

// forward pushes one packet of bits along path hop by hop, debiting
// TX/RX energy, accumulating per-hop latency and drawing per-hop
// losses. Relay liveness is re-checked at every hop: the forwarding
// trees are precomputed in New, so a path may pass through motes that
// have since died (battery exhaustion or Kill) — a dead relay cannot
// receive or retransmit, and the packet dies there. path[0] is the
// source, which the caller has already checked alive.
func (n *Network) forward(path []int, bits float64, loss *randx.Stream) (fwdOutcome, float64) {
	latency := 0.0
	for hi, hop := range path {
		if hi > 0 && !n.Alive[hop] {
			return fwdDeadRelay, latency
		}
		rx := -1
		rxPos := n.cfg.BaseStation
		if hi+1 < len(path) {
			rx = path[hi+1]
			rxPos = n.cfg.Nodes[rx]
		}
		n.spend(hop, txEnergy(bits, n.cfg.Nodes[hop].Dist(rxPos)))
		if rx >= 0 && n.Alive[rx] {
			n.spend(rx, rxEnergy(bits))
		}
		latency += n.cfg.HopDelay
		if n.hopLost(hop, rx, loss) {
			return fwdLostHop, latency
		}
	}
	return fwdDelivered, latency
}

// hopLost draws one hop's loss, delegating to the fault injector when
// one is attached.
func (n *Network) hopLost(tx, rx int, loss *randx.Stream) bool {
	if f := n.cfg.Faults; f != nil {
		return f.HopLost(tx, rx, n.cfg.HopLoss, loss)
	}
	return loss.Bernoulli(n.cfg.HopLoss)
}

// recordRound folds one round's aggregate stats into the metrics; no-op
// without a registry.
func (n *Network) recordRound(stats RoundStats) {
	m := n.metrics
	if m == nil {
		return
	}
	m.rounds.Inc()
	m.heard.Add(float64(stats.Heard))
	m.delivered.Add(float64(stats.Delivered))
	m.lostHops.Add(float64(stats.LostHops))
	m.voids.Add(float64(stats.Voids))
	m.deadRelays.Add(float64(stats.DeadRelays))
	m.collisions.Add(float64(stats.Collisions))
	m.asleep.Add(float64(stats.Asleep))
	m.deadSkips.Add(float64(stats.Dead))
	m.energy.Add(stats.EnergySpent)
	m.deadMotes.Set(float64(len(n.cfg.Nodes) - n.AliveCount()))
	for i, mg := range m.moteEnergy {
		mg.Set(n.Energy[i])
	}
}

// contention simulates the slotted MAC for one round and returns the set
// of transmitters destroyed by collisions. Nil when contention is off.
func (n *Network) contention(target geom.Point, awake func(i int) bool, rng *randx.Stream) map[int]bool {
	if n.cfg.ContentionSlots <= 0 {
		return nil
	}
	mac := rng.Split("mac")
	type tx struct {
		id   int
		slot int
	}
	var txs []tx
	for i, p := range n.cfg.Nodes {
		if n.cfg.SensingRange > 0 && p.Dist(target) > n.cfg.SensingRange {
			continue
		}
		if awake != nil && !awake(i) {
			continue
		}
		if !n.Alive[i] {
			continue
		}
		txs = append(txs, tx{id: i, slot: mac.Intn(n.cfg.ContentionSlots)})
	}
	collided := make(map[int]bool)
	interference := 2 * n.cfg.CommRange
	for a := 0; a < len(txs); a++ {
		for b := a + 1; b < len(txs); b++ {
			if txs[a].slot != txs[b].slot {
				continue
			}
			if n.cfg.Nodes[txs[a].id].Dist(n.cfg.Nodes[txs[b].id]) <= interference {
				collided[txs[a].id] = true
				collided[txs[b].id] = true
			}
		}
	}
	return collided
}

// spend debits energy from node i and kills it when the battery empties.
func (n *Network) spend(i int, joules float64) {
	if n.energyScale != nil {
		joules *= n.energyScale[i]
	}
	n.Energy[i] += joules
	if n.cfg.InitialEnergy > 0 && n.Energy[i] >= n.cfg.InitialEnergy {
		n.Alive[i] = false
	}
}

// SetEnergyScale sets node i's energy-drain multiplier (1 = nominal);
// fault injection uses it for accelerated battery depletion. The scale
// slice is only materialised once a scale deviates from nominal, so
// unfaulted runs pay nothing.
func (n *Network) SetEnergyScale(i int, scale float64) {
	if n.energyScale == nil {
		if scale == 1 {
			return
		}
		n.energyScale = make([]float64, len(n.cfg.Nodes))
		for j := range n.energyScale {
			n.energyScale[j] = 1
		}
	}
	n.energyScale[i] = scale
}

// Kill marks node i dead regardless of battery — fault injection for the
// fault-tolerance experiments.
func (n *Network) Kill(i int) { n.Alive[i] = false }

// Revive restores node i (its consumed energy is kept).
func (n *Network) Revive(i int) {
	if n.cfg.InitialEnergy == 0 || n.Energy[i] < n.cfg.InitialEnergy {
		n.Alive[i] = true
	}
}

// AliveCount returns how many nodes are alive.
func (n *Network) AliveCount() int {
	c := 0
	for _, a := range n.Alive {
		if a {
			c++
		}
	}
	return c
}

func txEnergy(bits, dist float64) float64 {
	return elecEnergyPerBit*bits + ampEnergyPerBit*bits*dist*dist
}

func rxEnergy(bits float64) float64 { return elecEnergyPerBit * bits }

func total(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// HopCount returns the number of hops from node i to the base station
// (1 = direct), and ok=false for voids.
func (n *Network) HopCount(i int) (int, bool) {
	path, ok := n.PathTo(i)
	if !ok {
		return 0, false
	}
	return len(path), true
}

// MeanHopCount averages HopCount over all routable nodes; NaN when none
// are routable.
func (n *Network) MeanHopCount() float64 {
	sum, cnt := 0, 0
	for i := range n.cfg.Nodes {
		if h, ok := n.HopCount(i); ok {
			sum += h
			cnt++
		}
	}
	if cnt == 0 {
		return math.NaN()
	}
	return float64(sum) / float64(cnt)
}
