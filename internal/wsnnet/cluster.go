package wsnnet

import (
	"fmt"
	"math"

	"fttt/internal/geom"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/sampling"
)

// Clusters is a two-tier topology over a Network: member motes send their
// reports one hop to a cluster head, the head aggregates the round's
// reports into one packet and forwards it to the base station over the
// greedy multihop path. Aggregation is the classic WSN energy lever the
// paper's Sec. 4.3 alludes to ("information is real-time aggregated and
// stored in the base stations or in the cluster heads" [28]).
type Clusters struct {
	// Heads lists the cluster-head node IDs.
	Heads []int
	// HeadOf[i] is node i's cluster head (possibly i itself).
	HeadOf []int
	// AggregationFactor scales the marginal cost of each additional
	// member report inside the aggregate packet: packet bits =
	// ReportBits · (1 + factor·(reports−1)). 1 = no compression,
	// 0 = perfect aggregation. Default 0.25.
	AggregationFactor float64
}

// FormClusters builds k clusters with farthest-point head selection
// (deterministic: the first head is the node nearest the base station,
// each next head maximises its distance to the chosen heads) and
// nearest-head membership. It returns an error if k is out of range.
func (n *Network) FormClusters(k int) (*Clusters, error) {
	nn := len(n.cfg.Nodes)
	if k < 1 || k > nn {
		return nil, fmt.Errorf("wsnnet: cluster count %d out of range [1, %d]", k, nn)
	}
	heads := make([]int, 0, k)
	best, bestD := 0, math.Inf(1)
	for i, p := range n.cfg.Nodes {
		if d := p.Dist(n.cfg.BaseStation); d < bestD {
			best, bestD = i, d
		}
	}
	heads = append(heads, best)
	for len(heads) < k {
		cand, candD := -1, -1.0
		for i, p := range n.cfg.Nodes {
			dmin := math.Inf(1)
			for _, h := range heads {
				if d := p.Dist(n.cfg.Nodes[h]); d < dmin {
					dmin = d
				}
			}
			if dmin > candD {
				cand, candD = i, dmin
			}
		}
		heads = append(heads, cand)
	}
	headOf := make([]int, nn)
	for i, p := range n.cfg.Nodes {
		bh, bd := heads[0], math.Inf(1)
		for _, h := range heads {
			if d := p.Dist(n.cfg.Nodes[h]); d < bd {
				bh, bd = h, d
			}
		}
		headOf[i] = bh
	}
	return &Clusters{Heads: heads, HeadOf: headOf, AggregationFactor: 0.25}, nil
}

// CollectRoundClustered is CollectRound over the two-tier topology:
// members transmit one hop to their head (falling back to the direct
// greedy path when the head is out of comm range), heads aggregate the
// round's reports and forward one packet each. Per-hop loss applies to
// the member hop and to every hop of the head's path; losing the
// aggregate loses every report it carried — the aggregation trade-off.
func (n *Network) CollectRoundClustered(target geom.Point, k int, cl *Clusters, rng *randx.Stream) (*sampling.Group, RoundStats) {
	sp := n.cfg.Tracer.Start(obs.SpanRef{}, "wsnnet", "collect_round_clustered")
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

	// Phase 1: sensing + member hop to the head.
	type report struct {
		id      int
		samples []float64
	}
	arrived := make(map[int][]report) // head → reports that reached it
	var direct []report               // reports taking the fallback path
	for i, p := range n.cfg.Nodes {
		if n.cfg.SensingRange > 0 && p.Dist(target) > n.cfg.SensingRange {
			continue
		}
		stats.Heard++
		if !n.Alive[i] {
			stats.Dead++
			continue
		}
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
		rep := report{id: i, samples: samples}
		head := cl.HeadOf[i]
		switch {
		case head == i && n.Alive[head]:
			arrived[head] = append(arrived[head], rep)
		case n.Alive[head] && p.Dist(n.cfg.Nodes[head]) <= n.cfg.CommRange:
			n.spend(i, txEnergy(n.cfg.ReportBits, p.Dist(n.cfg.Nodes[head])))
			n.spend(head, rxEnergy(n.cfg.ReportBits))
			if n.hopLost(i, head, loss) {
				stats.LostHops++
				continue
			}
			arrived[head] = append(arrived[head], rep)
		default:
			direct = append(direct, rep)
		}
	}

	deliver := func(rep report) {
		stats.Delivered++
		g.Reported[rep.id] = true
		for t := 0; t < k; t++ {
			g.RSS[t][rep.id] = rep.samples[t]
		}
	}

	// Under a contention MAC, members transmit on TDMA slots assigned by
	// their head (collision-free); only the heads' aggregate
	// transmissions contend with each other.
	headCollided := map[int]bool{}
	if n.cfg.ContentionSlots > 0 {
		mac := rng.Split("mac-heads")
		slots := make(map[int]int, len(cl.Heads))
		for _, head := range cl.Heads {
			if _, ok := arrived[head]; ok {
				slots[head] = mac.Intn(n.cfg.ContentionSlots)
			}
		}
		interference := 2 * n.cfg.CommRange
		for ai, a := range cl.Heads {
			for _, b := range cl.Heads[ai+1:] {
				sa, oka := slots[a]
				sb, okb := slots[b]
				if !oka || !okb || sa != sb {
					continue
				}
				if n.cfg.Nodes[a].Dist(n.cfg.Nodes[b]) <= interference {
					headCollided[a] = true
					headCollided[b] = true
				}
			}
		}
	}

	// Phase 2: heads forward aggregates along their greedy path.
	// Iterate heads in their stable Clusters order so the loss draws are
	// reproducible (map iteration order is randomised).
	for _, head := range cl.Heads {
		reps, ok := arrived[head]
		if !ok {
			continue
		}
		if headCollided[head] {
			n.spend(head, txEnergy(n.cfg.ReportBits, n.cfg.CommRange))
			stats.Collisions += len(reps)
			continue
		}
		path, routable := n.PathTo(head)
		if !routable {
			stats.Voids += len(reps)
			continue
		}
		bits := n.cfg.ReportBits * (1 + cl.AggregationFactor*float64(len(reps)-1))
		outcome, fwdLatency := n.forward(path, bits, loss)
		switch outcome {
		case fwdDeadRelay:
			stats.Voids += len(reps)
			stats.DeadRelays += len(reps)
			n.cfg.Tracer.RecordEvent(obs.SpanRef{}, "wsnnet", "report_dead_relay", float64(head))
			continue
		case fwdLostHop:
			stats.LostHops += len(reps)
			continue
		}
		latency := n.cfg.HopDelay + fwdLatency // member hop + head path
		if latency > stats.MaxLatency {
			stats.MaxLatency = latency
		}
		for _, rep := range reps {
			deliver(rep)
		}
	}

	// Phase 3: fallback reports go the direct greedy way.
	for _, rep := range direct {
		path, routable := n.PathTo(rep.id)
		if !routable {
			stats.Voids++
			continue
		}
		outcome, latency := n.forward(path, n.cfg.ReportBits, loss)
		switch outcome {
		case fwdDeadRelay:
			stats.Voids++
			stats.DeadRelays++
			n.cfg.Tracer.RecordEvent(obs.SpanRef{}, "wsnnet", "report_dead_relay", float64(rep.id))
			continue
		case fwdLostHop:
			stats.LostHops++
			continue
		}
		if latency > stats.MaxLatency {
			stats.MaxLatency = latency
		}
		deliver(rep)
	}

	if stats.MaxLatency > 0 {
		n.engine.ScheduleIn(stats.MaxLatency, func() {})
		n.engine.Run()
	}
	stats.EnergySpent = total(n.Energy) - energyBefore
	n.recordRound(stats)
	sp.End()
	return g, stats
}
