package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"fttt/internal/geom"
	"fttt/internal/obs"
	"fttt/internal/randx"
)

// TestTraceGoldenUnderFaults is the determinism acceptance check for the
// flight recorder: attaching a Recorder to a faulted tracking run must
// leave the estimate stream byte-identical to the untraced run, because
// recording consumes no randomness and never re-orders work. It also
// asserts the recording actually captured the round structure and the
// fault events it exists to expose.
func TestTraceGoldenUnderFaults(t *testing.T) {
	mkCfg := func() Config {
		cfg := defaultConfig(25)
		cfg.StarFractionLimit = 0.6
		cfg.RetryBackoff = 0.5
		cfg.ReportLoss = 0.1
		cfg.FaultScript = mustScript(t, fullFaultScript)
		cfg.FaultSeed = 17
		return cfg
	}
	traces := [][]geom.Point{makeTrace(10, 10, 30), makeTrace(80, 20, 30), makeTrace(50, 90, 30)}

	plain, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.TrackParallel(traces, nil, randx.New(5), 2)
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder(16384)
	cfg := mkCfg()
	cfg.Tracer = rec
	traced, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := traced.TrackParallel(traces, nil, randx.New(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recorder attached: estimates diverged from the untraced run")
	}

	recs := rec.Records()
	if len(recs) == 0 {
		t.Fatal("recorder captured nothing")
	}
	rounds, faultEvents, attrs := 0, 0, 0
	for _, r := range recs {
		switch {
		case r.Kind == obs.KindSpan && r.Component == "core" && r.Name == "localize":
			rounds++
			for _, a := range r.Attrs {
				if a.Key == "reported" || a.Key == "star_fraction" {
					attrs++
				}
			}
		case r.Kind == obs.KindEvent && r.Component == "faults":
			faultEvents++
		}
	}
	if wantRounds := 3 * 30; rounds != wantRounds {
		t.Errorf("recorded %d core/localize round spans, want %d", rounds, wantRounds)
	}
	if faultEvents == 0 {
		t.Error("fault script ran but no faults/* events were recorded")
	}
	if attrs == 0 {
		t.Error("round spans carry no reported/star_fraction attributes")
	}
}

// TestTraceRecorderRaceUnderBatch hammers one shared Recorder from
// concurrent LocalizeBatch rounds (batches serialize on the wave lock,
// shared targets contend on the per-target lock) while other goroutines
// snapshot Records() mid-flight. Run under -race by the raceserve CI
// job; correctness assertions are minimal — the instrumented interleaving
// is the point.
func TestTraceRecorderRaceUnderBatch(t *testing.T) {
	rec := obs.NewRecorder(512)
	cfg := defaultConfig(16)
	cfg.Tracer = rec
	m, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	root := randx.New(31)
	const (
		writers = 4
		batches = 6
		perReq  = 8
	)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				reqs := make([]LocalizeRequest, perReq)
				for i := range reqs {
					reqs[i] = LocalizeRequest{
						ID:  fmt.Sprintf("t%d", i%3),
						Pos: geom.Pt(10+float64(i*9%80), 10+float64(i*5%80)),
						Rng: root.Split(fmt.Sprintf("g%d/b%d/r%d", g, b, i)),
					}
				}
				if _, err := m.LocalizeBatch(reqs); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				recs := rec.Records()
				for i := 1; i < len(recs); i++ {
					if recs[i].Seq <= recs[i-1].Seq {
						t.Error("Records() snapshot not strictly Seq-ordered")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if rec.Appended() == 0 {
		t.Fatal("no records appended")
	}
	// Every batch opened one localize_batch span.
	var batchSpans int
	for _, r := range rec.Records() {
		if r.Kind == obs.KindSpan && r.Name == "localize_batch" {
			batchSpans++
		}
	}
	if batchSpans == 0 {
		t.Error("no localize_batch spans survived in the ring")
	}
}

// TestTraceRoundSpanTree pins the per-round causal tree shape one
// serving request produces: serve-request span → core/localize round →
// sampling + match children, with the batch span linking the request.
func TestTraceRoundSpanTree(t *testing.T) {
	rec := obs.NewRecorder(0)
	cfg := defaultConfig(16)
	cfg.Tracer = rec
	m, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqSpan := rec.Start(obs.SpanRef{}, "serve", "request")
	reqRef := reqSpan.Ref()
	_, err = m.LocalizeBatch([]LocalizeRequest{{
		ID: "t0", Pos: geom.Pt(40, 60), Rng: randx.New(7), Span: reqRef,
	}})
	if err != nil {
		t.Fatal(err)
	}
	reqSpan.End()

	var round, batch obs.Record
	for _, r := range rec.Records() {
		if r.Kind != obs.KindSpan {
			continue
		}
		switch {
		case r.Component == "core" && r.Name == "localize":
			round = r
		case r.Component == "core" && r.Name == "localize_batch":
			batch = r
		}
	}
	if round.Span == 0 || batch.Span == 0 {
		t.Fatal("missing round or batch span")
	}
	if round.Trace != reqRef.Trace || round.Parent != reqRef.Span {
		t.Errorf("round span not parented under the request: trace %d parent %d, want trace %d parent %d",
			round.Trace, round.Parent, reqRef.Trace, reqRef.Span)
	}
	var sampled, matched, linked bool
	for _, r := range rec.Records() {
		switch {
		case r.Kind == obs.KindSpan && r.Component == "sampling" && r.Parent == round.Span:
			sampled = true
		case r.Kind == obs.KindSpan && r.Component == "match" && r.Parent == round.Span:
			matched = true
		case r.Kind == obs.KindLink && r.Span == batch.Span && r.LinkSpan == reqRef.Span:
			linked = true
		}
	}
	if !sampled || !matched {
		t.Errorf("round children: sampling=%v match=%v, want both", sampled, matched)
	}
	if !linked {
		t.Error("batch span does not link the request span")
	}
}
