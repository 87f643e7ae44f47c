package core

import (
	"strings"
	"testing"

	"fttt/internal/deploy"
	"fttt/internal/geom"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/rf"
)

// TestLocalizeTelemetry checks that an attached registry and recorder
// see every localization, and that the exported names match DESIGN.md
// §"Telemetry".
func TestLocalizeTelemetry(t *testing.T) {
	field := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Grid(field, 16)
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(0)
	tr, err := New(Config{
		Field: field, Nodes: dep.Positions(), Model: rf.Default(),
		Epsilon: 1, SamplingTimes: 5, Range: 40, CellSize: 4,
		ReportLoss: 0.3, // force some missing reports
		Obs:        reg, Tracer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(3)
	const rounds = 8
	for i := 0; i < rounds; i++ {
		tr.Localize(geom.Pt(30+float64(i), 50), rng.SplitN("loc", i))
	}

	if got := reg.Counter("fttt_core_localizations_total").Value(); got != rounds {
		t.Errorf("localizations counter = %v, want %d", got, rounds)
	}
	if got := reg.Histogram("fttt_core_localize_seconds", nil).Count(); got != rounds {
		t.Errorf("latency histogram count = %d, want %d", got, rounds)
	}
	if got := reg.Histogram("fttt_core_matcher_faces_visited", nil).Count(); got != rounds {
		t.Errorf("visited histogram count = %d, want %d", got, rounds)
	}
	if reg.Histogram("fttt_core_matcher_faces_visited", nil).Sum() <= 0 {
		t.Error("matcher visited no faces?")
	}
	if got := reg.Counter("fttt_core_missing_reports_total").Value(); got <= 0 {
		t.Errorf("missing reports counter = %v, want > 0 under 30%% loss", got)
	}
	if got := countRecords(rec, obs.KindSpan, "core", "localize"); got != rounds {
		t.Errorf("recorder saw %d localize spans, want %d", got, rounds)
	}

	var b strings.Builder
	if _, err := reg.Snapshot().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE fttt_core_localize_seconds histogram") {
		t.Errorf("snapshot missing core latency histogram:\n%s", b.String())
	}
}

// countRecords counts rec's records of kind under component/name.
func countRecords(rec *obs.Recorder, kind, component, name string) int {
	n := 0
	for _, r := range rec.Records() {
		if r.Kind == kind && r.Component == component && r.Name == name {
			n++
		}
	}
	return n
}

// TestFallbackTelemetry checks the heuristic→exhaustive fallback counter
// via an absurd threshold that makes every match fall back.
func TestFallbackTelemetry(t *testing.T) {
	field := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Grid(field, 9)
	reg := obs.NewRegistry()
	tr, err := New(Config{
		Field: field, Nodes: dep.Positions(), Model: rf.Default(),
		Epsilon: 1, SamplingTimes: 5, Range: 40, CellSize: 4,
		FallbackBelow: 1e18, // nothing matches this well
		Obs:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(4)
	est := tr.Localize(geom.Pt(50, 50), rng)
	if !est.FellBack {
		t.Skip("exact match beat the fallback threshold; nothing to assert")
	}
	if got := reg.Counter("fttt_core_matcher_fallbacks_total").Value(); got < 1 {
		t.Errorf("fallback counter = %v, want ≥ 1", got)
	}
}
