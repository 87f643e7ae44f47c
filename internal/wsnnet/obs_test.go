package wsnnet

import (
	"strings"
	"testing"

	"fttt/internal/geom"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/rf"
)

// TestCollectRoundTelemetry drives a lossy network with a registry and
// recorder attached and checks the substrate counters add up.
func TestCollectRoundTelemetry(t *testing.T) {
	nodes := []geom.Point{
		geom.Pt(10, 10), geom.Pt(30, 10), geom.Pt(50, 10),
		geom.Pt(10, 30), geom.Pt(30, 30), geom.Pt(50, 30),
	}
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(0)
	n, err := New(Config{
		Nodes:       nodes,
		BaseStation: geom.Pt(0, 0),
		Model:       rf.Default(),
		CommRange:   30,
		HopLoss:     0.4,
		HopDelay:    0.01,
		ReportBits:  256,
		Epsilon:     1,
		Obs:         reg,
		Tracer:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(11)
	const rounds = 10
	var heard, delivered int
	for i := 0; i < rounds; i++ {
		g, st := n.CollectRound(geom.Pt(30, 20), 5, rng.SplitN("round", i))
		heard += st.Heard
		delivered += st.Delivered
		if g.NumReported() != st.Delivered {
			t.Fatalf("round %d: reported %d != delivered %d", i, g.NumReported(), st.Delivered)
		}
	}

	if got := reg.Counter("fttt_net_rounds_total").Value(); got != rounds {
		t.Errorf("rounds counter = %v, want %d", got, rounds)
	}
	if got := reg.Counter("fttt_net_reports_heard_total").Value(); got != float64(heard) {
		t.Errorf("heard counter = %v, want %d", got, heard)
	}
	if got := reg.Counter("fttt_net_reports_delivered_total").Value(); got != float64(delivered) {
		t.Errorf("delivered counter = %v, want %d", got, delivered)
	}
	if got := reg.Histogram("fttt_net_report_hops", nil).Count(); got != uint64(delivered) {
		t.Errorf("hops histogram count = %d, want %d", got, delivered)
	}
	if reg.Counter("fttt_net_energy_joules_total").Value() <= 0 {
		t.Error("no energy recorded")
	}
	// 40% hop loss over 10 rounds: some reports must have died, and the
	// recorder must have seen each as an event.
	lost := reg.Counter("fttt_net_reports_lost_total").Value()
	if lost <= 0 {
		t.Error("no lost reports under 40% hop loss")
	}
	if got := countRecords(rec, obs.KindEvent, "wsnnet", "report_lost"); float64(got) != lost {
		t.Errorf("recorder lost events = %d, metrics lost = %v", got, lost)
	}
	if got := countRecords(rec, obs.KindSpan, "wsnnet", "collect_round"); got != rounds {
		t.Errorf("recorder saw %d round spans, want %d", got, rounds)
	}

	// Per-mote energy gauges mirror Network.Energy.
	var b strings.Builder
	if _, err := reg.Snapshot().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `fttt_net_mote_energy_joules{mote="0"}`) {
		t.Errorf("snapshot missing per-mote energy series:\n%s", b.String())
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

// TestClusteredRoundTelemetry checks the clustered collection path
// records rounds too.
func TestClusteredRoundTelemetry(t *testing.T) {
	nodes := []geom.Point{
		geom.Pt(10, 10), geom.Pt(20, 10), geom.Pt(30, 10),
		geom.Pt(10, 20), geom.Pt(20, 20), geom.Pt(30, 20),
	}
	reg := obs.NewRegistry()
	n, err := New(Config{
		Nodes:       nodes,
		BaseStation: geom.Pt(0, 0),
		Model:       rf.Default(),
		CommRange:   25,
		ReportBits:  256,
		Epsilon:     1,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := n.FormClusters(2)
	if err != nil {
		t.Fatal(err)
	}
	n.CollectRoundClustered(geom.Pt(20, 15), 5, cl, randx.New(8))
	if got := reg.Counter("fttt_net_rounds_total").Value(); got != 1 {
		t.Errorf("rounds counter = %v, want 1", got)
	}
}
