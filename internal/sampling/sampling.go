// Package sampling implements the grouping sampling of Sec. 4.2: the RSS
// matrix collected over k rapid sampling instants (Def. 3), the
// construction of the ternary sampling vector (Def. 4/5, Algorithm 1),
// the extended quantitative sampling vector (Def. 10, Sec. 6), and the
// fault-tolerance filling rules for unreported sensors (eq. 6).
package sampling

import (
	"fmt"

	"fttt/internal/geom"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/vector"
)

// Group is one grouping sampling: the k×n RSS matrix of Def. 3 plus the
// set of nodes that actually reported. RSS[t][i] is node i's sample at
// instant t. A node that did not report has Reported[i] == false and its
// column is meaningless.
type Group struct {
	RSS      [][]float64
	Reported []bool
	// Epsilon is the sensing resolution ε: two RSS values closer than ε
	// are indistinguishable, so the instant contributes neither a win nor
	// a loss to the pair (Sec. 3.2's maximum undistinguishable
	// difference).
	Epsilon float64
}

// K returns the number of sampling instants in the group.
func (g *Group) K() int { return len(g.RSS) }

// N returns the number of nodes (columns).
func (g *Group) N() int {
	if len(g.RSS) == 0 {
		return len(g.Reported)
	}
	return len(g.RSS[0])
}

// NumReported returns |N_r|, the count of nodes that reported.
func (g *Group) NumReported() int {
	c := 0
	for _, r := range g.Reported {
		if r {
			c++
		}
	}
	return c
}

// Validate checks the matrix is rectangular and consistent with Reported.
func (g *Group) Validate() error {
	n := g.N()
	if len(g.Reported) != n {
		return fmt.Errorf("sampling: Reported has %d entries for %d columns", len(g.Reported), n)
	}
	for t, row := range g.RSS {
		if len(row) != n {
			return fmt.Errorf("sampling: row %d has %d entries, want %d", t, len(row), n)
		}
	}
	return nil
}

// Sampler draws grouping samplings from the paper's signal model for a
// fixed deployment.
type Sampler struct {
	// Model is the path-loss model generating RSS.
	Model rf.Model
	// Nodes are the sensor positions, in ID order.
	Nodes []geom.Point
	// Range is the sensing range R: nodes farther than Range from the
	// target never report (they cannot hear it). Zero or negative means
	// unlimited range.
	Range float64
	// ReportLoss is the probability that an in-range node's report is
	// lost (sensor fault, collision, routing failure) — it drives the
	// N̄_r fault set of Sec. 4.4(3). Zero means perfectly reliable.
	ReportLoss float64
	// Epsilon is the sensing resolution ε copied into every Group.
	Epsilon float64
	// Irregularity, when non-nil, holds each node's azimuthal gain map
	// (DOI sensing irregularity); Irregularity[i] applies to node i's
	// samples based on the direction from the node to the target.
	Irregularity []*rf.Irregularity
	// Faults, when non-nil, injects scripted failures into every group
	// (nil-is-off): crash/burst report suppression on top of ReportLoss,
	// calibration drift and clock-skew slew per sample. The injector
	// keeps its own clock — callers seek it to the group's virtual time
	// before Sample. internal/faults provides the deterministic
	// scenario-script implementation (DESIGN.md §9).
	Faults SampleFaults
	// Trace, when non-nil, records fault injections (report drops, RSS
	// bias) as structured trace events so failures land on the same
	// timeline as the estimate they corrupted (DESIGN.md §12). Recording
	// never consumes randomness, so traced draws stay byte-identical.
	Trace *obs.Recorder
	// TraceSpan parents the emitted events — the current collection
	// span. The owner of the sampler sets it around each Sample call.
	TraceSpan obs.SpanRef
}

// SampleFaults intercepts the ideal sampler's failure processes; it is
// consulted only when Sampler.Faults is non-nil.
type SampleFaults interface {
	// DropReport decides whether an in-range, loss-surviving node's
	// report is suppressed this group (crash, burst channel). rng is the
	// group's loss substream.
	DropReport(node int, rng *randx.Stream) bool
	// PerturbRSS adjusts node's raw RSS sample (calibration drift,
	// clock-skew slew).
	PerturbRSS(node int, rss float64) float64
}

// Sample draws one grouping sampling of k instants for a target at pos.
// Each node uses its own noise substream split from rng so that node
// count changes do not perturb other nodes' draws; the loss process uses
// a separate substream.
func (s *Sampler) Sample(pos geom.Point, k int, rng *randx.Stream) *Group {
	if k <= 0 {
		panic(fmt.Sprintf("sampling: non-positive sampling times k=%d", k))
	}
	n := len(s.Nodes)
	g := &Group{
		RSS:      make([][]float64, k),
		Reported: make([]bool, n),
		Epsilon:  s.Epsilon,
	}
	for t := range g.RSS {
		g.RSS[t] = make([]float64, n)
	}
	loss := rng.Split("loss")
	for i, np := range s.Nodes {
		inRange := s.Range <= 0 || np.Dist(pos) <= s.Range
		g.Reported[i] = inRange && !loss.Bernoulli(s.ReportLoss)
		if g.Reported[i] && s.Faults != nil && s.Faults.DropReport(i, loss) {
			g.Reported[i] = false
			s.Trace.RecordEvent(s.TraceSpan, "faults", "report_dropped", float64(i))
		}
		if !g.Reported[i] {
			continue
		}
		nodeRng := rng.SplitN("node-noise", i)
		d := np.Dist(pos)
		// Shadowing is constant within the group's short Δt window; only
		// the fast component varies per instant (rf.Model.FastFraction).
		mean := s.Model.MeanRSS(d) + nodeRng.Normal(0, s.Model.SigmaSlow())
		if s.Irregularity != nil && i < len(s.Irregularity) && s.Irregularity[i] != nil {
			mean += s.Irregularity[i].Gain(pos.Sub(np).Angle())
		}
		sigmaFast := s.Model.SigmaFast()
		for t := 0; t < k; t++ {
			g.RSS[t][i] = mean + nodeRng.Normal(0, sigmaFast)
		}
		if s.Faults != nil {
			for t := 0; t < k; t++ {
				g.RSS[t][i] = s.Faults.PerturbRSS(i, g.RSS[t][i])
			}
			if s.Trace != nil {
				// PerturbRSS is a pure additive bias (drift + skew), so
				// probing with 0 reveals this node's current corruption
				// without consuming randomness or perturbing the draws.
				if bias := s.Faults.PerturbRSS(i, 0); bias != 0 {
					s.Trace.RecordEvent(s.TraceSpan, "faults", "rss_bias", bias)
				}
			}
		}
	}
	return g
}

// PairCounts returns, for the pair (i, j), how many instants had
// rss_i > rss_j by at least ε (wins), how many had rss_j > rss_i by at
// least ε (losses), and how many were within ε of each other
// (undistinguishable — Sec. 3.2's sensing resolution). Both nodes must
// have reported.
func (g *Group) PairCounts(i, j int) (wins, losses, undistinguishable int) {
	for t := range g.RSS {
		d := g.RSS[t][i] - g.RSS[t][j]
		switch {
		case d >= g.Epsilon:
			wins++
		case -d >= g.Epsilon:
			losses++
		default:
			undistinguishable++
		}
	}
	return wins, losses, undistinguishable
}

// Vector builds the ternary sampling vector of Def. 5 via Algorithm 1,
// applying the fault-tolerance rules of eq. 6 for unreported nodes:
//
//   - both reported:      +1 if ordinal i-first, -1 if ordinal j-first,
//     0 if the order flipped within the group;
//   - only i reported:    +1 (silent nodes sense less than reporting ones);
//   - only j reported:    -1;
//   - neither reported:    * (Star).
func (g *Group) Vector() vector.Vector {
	n := g.N()
	v := vector.New(n)
	idx := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v[idx] = g.pairValue(i, j)
			idx++
		}
	}
	return v
}

func (g *Group) pairValue(i, j int) vector.Value {
	ri, rj := g.Reported[i], g.Reported[j]
	switch {
	case ri && rj:
		wins, losses, und := g.PairCounts(i, j)
		switch {
		case losses == 0 && und == 0:
			return vector.Nearer
		case wins == 0 && und == 0:
			return vector.Farther
		default:
			// The order inverted, or at least one instant was within the
			// sensing resolution: the pair cannot be declared ordinal.
			return vector.Flipped
		}
	case ri && !rj:
		return vector.Nearer
	case !ri && rj:
		return vector.Farther
	default:
		return vector.Star
	}
}

// ExtendedVector builds the quantitative sampling vector of Def. 10:
// the pair component is (N_(i,j) − N_(j,i)) / k ∈ [−1, 1], preserving how
// lopsided the flip was. Fault cases follow eq. 6 with the same ±1/Star
// values as the ternary vector.
func (g *Group) ExtendedVector() vector.Vector {
	n := g.N()
	k := g.K()
	v := vector.New(n)
	idx := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if g.Reported[i] && g.Reported[j] && k > 0 {
				wins, losses, _ := g.PairCounts(i, j)
				v[idx] = vector.Value(float64(wins-losses) / float64(k))
			} else {
				v[idx] = g.pairValue(i, j)
			}
			idx++
		}
	}
	return v
}

// MeanRSS returns the per-node mean RSS over the group's instants for
// reporting nodes; the second result lists the reporting node IDs.
func (g *Group) MeanRSS() (means []float64, ids []int) {
	k := float64(g.K())
	for i, rep := range g.Reported {
		if !rep {
			continue
		}
		var sum float64
		for t := range g.RSS {
			sum += g.RSS[t][i]
		}
		means = append(means, sum/k)
		ids = append(ids, i)
	}
	return means, ids
}
