package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fttt/internal/geom"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/sampling"
)

// TestSerialBatchTelemetryParity pins that a round reports the same
// telemetry whichever entry point runs it: one request sequence goes
// through each target's own tracker (Localize for sampled targets,
// LocalizeGroup for the one fed external groups) and again through
// MultiTracker.LocalizeBatch, one multi-lane wave per round. Both runs
// must give equal estimates, equal fttt_core_* counters and histogram
// counts (latency sums and buckets excluded), and the same multiset of
// (kind, component, name, parent name) recorder records, leaving out
// the batch's own localize_batch span and its links.
func TestSerialBatchTelemetryParity(t *testing.T) {
	degraded := defaultConfig(25)
	degraded.StarFractionLimit = 0.6
	degraded.RetryBackoff = 0.5
	degraded.ReportLoss = 0.1
	degraded.FaultScript = mustScript(t, fullFaultScript+"crash at=6 frac=0.9 recover=9\n")
	degraded.FaultSeed = 17

	defended := defendedConfig(16)
	defended.Defense.MinRounds = 1
	defended.Defense.SuspectAbove = 0.05
	defended.Defense.ClearBelow = 0.01
	defended.Defense.LearnRate = 0.5
	defended.FaultScript = colludeScript(t)
	defended.FaultSeed = 9

	for _, tc := range []struct {
		name string
		cfg  Config
		// must names counters the run has to move, so the compared path
		// is known to have run.
		must []string
	}{
		{"plain", defaultConfig(16), []string{"fttt_core_missing_reports_total"}},
		{"degraded-retry", degraded, []string{"fttt_core_degraded_total", "fttt_core_retries_total", "fttt_core_extrapolated_total"}},
		{"defended", defended, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := runParity(t, tc.cfg, false)
			batch := runParity(t, tc.cfg, true)
			if !reflect.DeepEqual(serial.ests, batch.ests) {
				t.Fatal("batched estimates differ from serial")
			}
			if serial.metrics != batch.metrics {
				t.Errorf("fttt_core_* metrics differ:\nserial:\n%s\nbatch:\n%s", serial.metrics, batch.metrics)
			}
			for _, name := range tc.must {
				if !strings.Contains(serial.metrics, name+" ") || strings.Contains(serial.metrics, name+" 0\n") {
					t.Errorf("%s never moved; the compared path did not run:\n%s", name, serial.metrics)
				}
			}
			if !reflect.DeepEqual(serial.records, batch.records) {
				t.Errorf("recorder records differ:\nserial: %v\nbatch:  %v", serial.records, batch.records)
			}
			if tc.cfg.Defense != nil && serial.suspects == 0 {
				t.Error("no target's defense flagged a suspect; weighted lanes untested")
			}
		})
	}
}

// parityRun is what TestSerialBatchTelemetryParity compares.
type parityRun struct {
	ests    []Estimate
	metrics string   // fttt_core_* exposition lines, latency sum/buckets dropped
	records []string // sorted "kind component/name <- parent component/name"
	// suspects sums the targets' defense suspects at the end of the run.
	suspects int
}

// runParity runs the parity request sequence — three targets, 16 rounds,
// the fault clock at the round index — serially or batched.
func runParity(t *testing.T, cfg Config, batched bool) parityRun {
	t.Helper()
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(1 << 16)
	cfg.Obs, cfg.Tracer = reg, rec
	m, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &sampling.Sampler{Model: cfg.Model, Nodes: cfg.Nodes, Range: cfg.Range, Epsilon: cfg.Epsilon}
	root := randx.New(41)
	ids := []string{"t0", "t1", "g0"}
	var out parityRun
	for i := 0; i < 16; i++ {
		reqs := make([]LocalizeRequest, len(ids))
		for k, id := range ids {
			pos := geom.Pt(15+float64(k*30)+2*float64(i), 20+3*float64(i))
			rng := root.Split(id).SplitN("round", i)
			if id == "g0" {
				reqs[k] = LocalizeRequest{ID: id, Group: s.Sample(pos, cfg.SamplingTimes, rng)}
			} else {
				reqs[k] = LocalizeRequest{ID: id, Pos: pos, Rng: rng}
			}
			sched, err := m.FaultScheduler(id)
			if err != nil {
				t.Fatal(err)
			}
			if sched != nil {
				sched.Seek(float64(i))
			}
		}
		if batched {
			ests, err := m.LocalizeBatch(reqs)
			if err != nil {
				t.Fatal(err)
			}
			out.ests = append(out.ests, ests...)
			continue
		}
		for _, r := range reqs {
			ts, err := m.target(r.ID)
			if err != nil {
				t.Fatal(err)
			}
			if r.Group != nil {
				out.ests = append(out.ests, ts.tr.LocalizeGroup(r.Group))
			} else {
				out.ests = append(out.ests, ts.tr.Localize(r.Pos, r.Rng))
			}
		}
	}

	for _, id := range ids {
		ts, err := m.target(id)
		if err != nil {
			t.Fatal(err)
		}
		if d := ts.tr.Defense(); d != nil {
			out.suspects += len(d.Suspects())
		}
	}

	var b strings.Builder
	if _, err := reg.Snapshot().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(b.String(), "\n") {
		switch {
		case !strings.HasPrefix(l, "fttt_core_"),
			strings.HasPrefix(l, "fttt_core_batch_"),
			strings.HasPrefix(l, "fttt_core_localize_seconds_sum"),
			strings.HasPrefix(l, "fttt_core_localize_seconds_bucket"):
			continue
		}
		lines = append(lines, l)
	}
	out.metrics = strings.Join(lines, "\n") + "\n"

	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d records; enlarge it", rec.Dropped())
	}
	recs := rec.Records()
	names := make(map[obs.SpanID]string, len(recs))
	for _, r := range recs {
		names[r.Span] = r.Component + "/" + r.Name
	}
	for _, r := range recs {
		if r.Kind == obs.KindLink || r.Name == "localize_batch" {
			continue
		}
		parent := ""
		if r.Parent != 0 {
			parent = names[r.Parent]
		}
		out.records = append(out.records, fmt.Sprintf("%s %s/%s <- %s", r.Kind, r.Component, r.Name, parent))
	}
	sort.Strings(out.records)
	return out
}
