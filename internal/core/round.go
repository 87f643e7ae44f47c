package core

import (
	"math"
	"time"

	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/match"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/sampling"
	"fttt/internal/vector"
)

// round is one localization between its two halves. begin opens it —
// round span, grouping sampling, sampling vector, pre-match defense —
// and finish closes it — match span, post-match defense, warm start,
// degradation policy, metrics, round span. The round's one matcher call
// sits between the two: the tracker's own MatchWeighted for Localize and
// LocalizeGroupRetry, one MatchBatch pass over a whole wave for every
// LocalizeBatch lane. Lanes are independent and both engines share one
// configuration (newMatcher), so the two paths compute the same result.
type round struct {
	// g is the collected (or externally provided) grouping sampling; v
	// its sampling vector; prev the warm-start face the match starts
	// from; w the defense layer's per-pair trust weights (nil without a
	// Defense, or while no node is suspect).
	g    *sampling.Group
	v    vector.Vector
	prev *field.Face
	w    []float64
	// pos and rng are the sampler path's request: a degraded round
	// re-collects at pos from rng's "retry" substream. rng is nil when
	// the group was supplied.
	pos geom.Point
	rng *randx.Stream
	// sp is the core/localize round span, msp its match child; both are
	// inert with tracing off. In a wave msp also covers the wait for the
	// wave's other lanes. start feeds the latency histogram.
	sp, msp obs.ActiveSpan
	start   time.Time
}

// begin opens a round for r: the round span under r.Span (zero starts a
// fresh trace), then r.Group, or a collection at r.Pos from r.Rng. It
// ends just before the matcher call, with the match span open.
func (t *Tracker) begin(r *LocalizeRequest) round {
	var p round
	p.sp = t.rec.Start(r.Span, "core", "localize")
	t.round = p.sp.Ref()
	p.g = r.Group
	if p.g == nil {
		p.pos, p.rng = r.Pos, r.Rng
		p.g = t.sampleTraced("sample", r.Pos, r.Rng)
	}
	if t.metrics != nil {
		p.start = time.Now()
	}
	p.v, p.w = t.prepare(p.g)
	p.prev = t.prev
	p.msp = t.rec.Start(t.round, "match", "match")
	return p
}

// finish closes round p with its match result r — what
// t.matcher.MatchWeighted(p.v, p.prev, p.w) returns — and is the one
// place the per-round fttt_core_* metrics are updated. It annotates the
// round span with the outcome before publishing it. recollect is the
// retry hook of a supplied group (nil: no retry possible); the sampler
// path needs none.
func (t *Tracker) finish(p *round, r match.Result, recollect func() *sampling.Group) Estimate {
	est := t.degrade(p, t.settle(&p.msp, p.v, p.g, r), recollect)
	if m := t.metrics; m != nil {
		m.latency.Observe(time.Since(p.start).Seconds())
		m.localizations.Inc()
		m.visited.Observe(float64(est.Visited))
		m.stars.Add(float64(est.Stars))
		m.flipped.Add(float64(est.Flipped))
		m.missing.Add(float64(p.g.N() - p.g.NumReported()))
		if est.FellBack {
			m.fallbacks.Inc()
		}
		if est.Degraded {
			m.degraded.Inc()
		}
		if est.Retried {
			m.retries.Inc()
		}
		if est.Extrapolated {
			m.extrapolated.Inc()
		}
	}
	if p.sp.Active() {
		p.sp.Attr("reported", float64(est.Reported))
		p.sp.Attr("star_fraction", est.StarFraction())
		p.sp.Attr("face", float64(est.FaceID))
		p.sp.Flag("degraded", est.Degraded)
		p.sp.Flag("retried", est.Retried)
		p.sp.Flag("extrapolated", est.Extrapolated)
		p.sp.End()
		t.round = obs.SpanRef{}
	}
	return est
}

// recollect is a degraded round's one re-collection: on the sampler path
// a fresh collection at the same position from the request stream's
// "retry" substream (a pure derivation, so the primary draws are never
// perturbed) after the fault-clock backoff, else the caller's hook.
func (t *Tracker) recollect(p *round, hook func() *sampling.Group) *sampling.Group {
	if p.rng == nil {
		return hook()
	}
	if t.faults != nil && t.cfg.RetryBackoff > 0 {
		// The backoff lets transient faults clear before the
		// re-collection — advance the fault clock past it.
		t.faults.Seek(t.faults.Now() + t.cfg.RetryBackoff)
	}
	return t.sampleTraced("resample", p.pos, p.rng.Split("retry"))
}

// prepare builds g's sampling vector and runs the pre-match defense:
// the range-plausibility gate over the raw reports, then the snapshot,
// quorum correction or starring of suspect pairs in place, and the
// trust weights (nil while no node is suspect — the unmodified,
// byte-identical matcher path).
func (t *Tracker) prepare(g *sampling.Group) (vector.Vector, []float64) {
	v := t.samplingVector(g)
	if t.defense == nil {
		return v, nil
	}
	t.defense.ObserveGroup(g)
	return v, t.defense.Apply(v)
}

// settle folds one match result into the round: it publishes the match
// span msp, charges the post-match defense evidence against the face
// the match settled on, moves the warm start there and returns the
// round's Estimate before the degradation policy.
func (t *Tracker) settle(msp *obs.ActiveSpan, v vector.Vector, g *sampling.Group, r match.Result) Estimate {
	if msp.Active() {
		msp.Attr("visited", float64(r.Visited))
		if math.IsInf(r.Similarity, 1) {
			msp.Flag("exact", true)
		} else {
			msp.Attr("similarity", r.Similarity)
		}
		msp.Flag("fellback", r.FellBack)
		msp.End()
	}
	if t.defense != nil {
		t.defense.Observe(r.Face.Signature)
	}
	t.prev = r.Face
	return Estimate{
		Pos:        r.Estimate,
		FaceID:     r.Face.ID,
		Similarity: r.Similarity,
		Reported:   g.NumReported(),
		Stars:      v.CountStars(),
		Flipped:    v.CountFlipped(),
		Visited:    r.Visited,
		FellBack:   r.FellBack,
		pairsTotal: v.Dim(),
	}
}
