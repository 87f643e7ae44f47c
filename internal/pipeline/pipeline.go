// Package pipeline assembles the full online tracking system the paper's
// outdoor deployment ran: a WSN substrate collecting grouping samplings
// over the radio, the FTTT tracker matching them, and an optional output
// smoother — all driven by the discrete-event virtual clock, with a
// channel-based streaming interface for consumers that want estimates as
// they are produced.
package pipeline

import (
	"fmt"
	"time"

	"fttt/internal/core"
	"fttt/internal/filter"
	"fttt/internal/geom"
	"fttt/internal/mobility"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/sampling"
	"fttt/internal/wsnnet"
)

// Config assembles a Service.
type Config struct {
	// Net carries the reports (required).
	Net *wsnnet.Network
	// Tracker localizes each collected group (required).
	Tracker *core.Tracker
	// Smoother optionally filters the raw estimates.
	Smoother filter.Smoother
	// Period is the time between localization rounds in seconds.
	Period float64
	// K is the grouping sampling times per round.
	K int
	// WakeRadius, when positive, duty-cycles the collection: only nodes
	// within this radius of the previous estimate stay awake.
	WakeRadius float64
	// RetryBackoff is the virtual-time pause before a degraded round's
	// re-collection (seconds). The retry itself is armed by the
	// tracker's Config.StarFractionLimit; a round whose sampling vector
	// exceeds it waits RetryBackoff on the virtual clock — giving
	// transient faults a chance to clear — and collects once more, with
	// both collections' RoundStats merged into the Update.
	RetryBackoff float64
	// Obs, when non-nil, receives the pipeline's metrics (rounds, wall
	// round duration, raw-vs-smoothed residual, wake-set size —
	// DESIGN.md §"Telemetry"). Attach the same registry to the Net and
	// Tracker configs to see all three layers in one scrape.
	Obs *obs.Registry
	// Tracer, when non-nil, is the flight recorder that receives a root
	// span per localization round and the smoother's span and residual
	// event (DESIGN.md §12).
	Tracer *obs.Recorder
}

// Update is one localization round's outcome.
type Update struct {
	T     float64
	True  geom.Point
	Raw   geom.Point
	Final geom.Point // smoothed, or Raw when no smoother is configured
	Error float64    // |Final - True|
	Stats wsnnet.RoundStats
	// Degraded/Retried/Extrapolated mirror the tracker's degradation
	// policy for this round (core.Estimate, DESIGN.md §9): too many
	// silent pairs, the bounded re-collection fired, the position came
	// from mobility extrapolation rather than the matcher.
	Degraded     bool
	Retried      bool
	Extrapolated bool
}

// Service is a ready-to-run online tracking pipeline.
type Service struct {
	cfg     Config
	prev    geom.Point
	have    bool
	metrics *serviceMetrics
}

// serviceMetrics caches the pipeline metric handles, resolved at New.
type serviceMetrics struct {
	rounds   *obs.Counter
	duration *obs.Histogram
	residual *obs.Histogram
	errors   *obs.Histogram
	wakeSet  *obs.Histogram
}

func newServiceMetrics(r *obs.Registry) *serviceMetrics {
	return &serviceMetrics{
		rounds:   r.Counter("fttt_pipeline_rounds_total"),
		duration: r.Histogram("fttt_pipeline_round_duration_seconds", obs.ExpBuckets(1e-5, 2, 18)),
		residual: r.Histogram("fttt_pipeline_smoothing_residual_meters", obs.ExpBuckets(0.125, 2, 10)),
		errors:   r.Histogram("fttt_pipeline_error_meters", obs.ExpBuckets(0.25, 2, 10)),
		wakeSet:  r.Histogram("fttt_pipeline_wake_set_size", obs.LinearBuckets(0, 4, 16)),
	}
}

// New validates and assembles a Service.
func New(cfg Config) (*Service, error) {
	if cfg.Net == nil || cfg.Tracker == nil {
		return nil, fmt.Errorf("pipeline: Net and Tracker are required")
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("pipeline: Period must be positive, got %v", cfg.Period)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("pipeline: K must be ≥ 1, got %d", cfg.K)
	}
	s := &Service{cfg: cfg}
	if cfg.Obs != nil {
		s.metrics = newServiceMetrics(cfg.Obs)
	}
	return s, nil
}

// Run tracks the target for duration virtual seconds, producing one
// Update per localization round, scheduled on the network's virtual
// clock. It is deterministic given rng.
func (s *Service) Run(target mobility.Model, duration float64, rng *randx.Stream) []Update {
	rounds := int(duration/s.cfg.Period) + 1
	updates := make([]Update, 0, rounds)
	s.RunFunc(target, duration, rng, func(u Update) { updates = append(updates, u) })
	return updates
}

// RunFunc tracks the target for duration virtual seconds, invoking fn
// with each Update as soon as its localization round completes — before
// the next round is scheduled, so a blocking fn holds the virtual clock
// still. Run and Stream are built on it. It is deterministic given rng.
func (s *Service) RunFunc(target mobility.Model, duration float64, rng *randx.Stream, fn func(Update)) {
	engine := s.cfg.Net.Engine()
	rounds := int(duration/s.cfg.Period) + 1

	var round func(i int)
	round = func(i int) {
		sp := s.cfg.Tracer.Start(obs.SpanRef{}, "pipeline", "round")
		var wallStart time.Time
		if s.metrics != nil {
			wallStart = time.Now()
		}
		t := engine.Now()
		truth := target.At(t)
		collect := func(r *randx.Stream) (*sampling.Group, wsnnet.RoundStats) {
			if s.cfg.WakeRadius > 0 && s.have {
				return s.cfg.Net.CollectRoundFocused(truth, s.prev, s.cfg.WakeRadius, s.cfg.K, r)
			}
			return s.cfg.Net.CollectRound(truth, s.cfg.K, r)
		}
		roundRng := rng.SplitN("round", i)
		gg, st := collect(roundRng)
		// The recollect hook only fires when the tracker's star-fraction
		// policy declares the round degraded; it pauses the virtual
		// clock for the backoff (the target is treated as stationary
		// over it — backoff ≪ Period) and folds the second collection's
		// stats into the round's.
		est := s.cfg.Tracker.LocalizeGroupRetry(gg, func() *sampling.Group {
			if s.cfg.RetryBackoff > 0 {
				engine.ScheduleIn(s.cfg.RetryBackoff, func() {})
				engine.Run()
			}
			g2, st2 := collect(roundRng.Split("retry"))
			st.Accumulate(st2)
			return g2
		})
		raw := est.Pos
		s.prev, s.have = raw, true

		final := raw
		if s.cfg.Smoother != nil {
			dt := s.cfg.Period
			if i == 0 {
				dt = 0
			}
			smooth := s.cfg.Tracer.Start(obs.SpanRef{}, "filter", "smooth")
			final = s.cfg.Smoother.Update(raw, dt)
			smooth.End()
			s.cfg.Tracer.RecordEvent(obs.SpanRef{}, "filter", "residual", raw.Dist(final))
		}
		fn(Update{
			T:            t,
			True:         truth,
			Raw:          raw,
			Final:        final,
			Error:        final.Dist(truth),
			Stats:        st,
			Degraded:     est.Degraded,
			Retried:      est.Retried,
			Extrapolated: est.Extrapolated,
		})
		if m := s.metrics; m != nil {
			m.rounds.Inc()
			m.duration.Observe(time.Since(wallStart).Seconds())
			m.residual.Observe(raw.Dist(final))
			m.errors.Observe(final.Dist(truth))
			m.wakeSet.Observe(float64(st.Heard - st.Asleep))
		}
		sp.End()
		if i+1 < rounds {
			// CollectRound may have advanced the clock past the
			// delivery latency; schedule relative to the round grid.
			next := float64(i+1) * s.cfg.Period
			if next < engine.Now() {
				next = engine.Now()
			}
			engine.Schedule(next, func() { round(i + 1) })
		}
	}
	engine.Schedule(engine.Now(), func() { round(0) })
	engine.Run()
}

// Stream runs the pipeline in a goroutine and delivers Updates on the
// returned channel, which is closed when the run completes. Each Update
// is sent from inside its localization round (RunFunc), so the channel —
// unbuffered — makes the pipeline advance at the consumer's pace: the
// virtual clock does not move past a round until its Update is received.
func (s *Service) Stream(target mobility.Model, duration float64, rng *randx.Stream) <-chan Update {
	ch := make(chan Update)
	go func() {
		defer close(ch)
		s.RunFunc(target, duration, rng, func(u Update) { ch <- u })
	}()
	return ch
}

// MeanError summarises a run. An empty run yields the sentinel 0, not
// NaN; use MeanErrorOK to distinguish "no updates" from a genuinely
// zero mean.
func MeanError(updates []Update) float64 {
	m, _ := MeanErrorOK(updates)
	return m
}

// MeanErrorOK is MeanError with an explicit emptiness signal: ok is
// false (and the mean 0) when there are no updates to average.
func MeanErrorOK(updates []Update) (mean float64, ok bool) {
	if len(updates) == 0 {
		return 0, false
	}
	var sum float64
	for _, u := range updates {
		sum += u.Error
	}
	return sum / float64(len(updates)), true
}
