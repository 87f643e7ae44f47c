package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRecorderSpanTree(t *testing.T) {
	rec := NewRecorder(64)
	root := rec.Start(SpanRef{}, "serve", "request")
	root.AttrStr("target", "t1")
	root.Attr("seq", 3)
	child := rec.Start(root.Ref(), "core", "localize")
	rec.RecordEvent(child.Ref(), "faults", "report_dropped", 7)
	child.End()
	root.End()

	recs := rec.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Records publish at End: event, child span, root span.
	ev, cs, rs := recs[0], recs[1], recs[2]
	if ev.Kind != KindEvent || cs.Kind != KindSpan || rs.Kind != KindSpan {
		t.Fatalf("kinds = %s/%s/%s", ev.Kind, cs.Kind, rs.Kind)
	}
	if rs.Parent != 0 {
		t.Errorf("root parent = %d, want 0", rs.Parent)
	}
	if cs.Parent != rs.Span || cs.Trace != rs.Trace {
		t.Errorf("child parent/trace = %d/%d, want %d/%d", cs.Parent, cs.Trace, rs.Span, rs.Trace)
	}
	if ev.Parent != cs.Span || ev.Trace != cs.Trace {
		t.Errorf("event parent/trace = %d/%d, want %d/%d", ev.Parent, ev.Trace, cs.Span, cs.Trace)
	}
	if ev.Value != 7 {
		t.Errorf("event value = %v, want 7", ev.Value)
	}
	wantAttrs := map[string]Attr{"target": {Key: "target", Str: "t1"}, "seq": {Key: "seq", Num: 3}}
	if len(rs.Attrs) != 2 {
		t.Fatalf("root attrs = %v", rs.Attrs)
	}
	for _, a := range rs.Attrs {
		if a != wantAttrs[a.Key] {
			t.Errorf("attr %q = %+v, want %+v", a.Key, a, wantAttrs[a.Key])
		}
	}
}

func TestRecorderRingKeepsLastN(t *testing.T) {
	rec := NewRecorder(8)
	for i := 0; i < 20; i++ {
		rec.RecordEvent(SpanRef{}, "test", "tick", float64(i))
	}
	recs := rec.Records()
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8", len(recs))
	}
	for i, r := range recs {
		if want := uint64(12 + i); r.Seq != want {
			t.Errorf("record %d seq = %d, want %d", i, r.Seq, want)
		}
		if want := float64(12 + i); r.Value != want {
			t.Errorf("record %d value = %v, want %v", i, r.Value, want)
		}
	}
	if got := rec.Dropped(); got != 12 {
		t.Errorf("Dropped() = %d, want 12", got)
	}
	if got := rec.Appended(); got != 20 {
		t.Errorf("Appended() = %d, want 20", got)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var rec *Recorder
	sp := rec.Start(SpanRef{}, "c", "n")
	if sp.Active() {
		t.Error("span from nil recorder is active")
	}
	if sp.Ref().Valid() {
		t.Error("span from nil recorder has a valid ref")
	}
	sp.Attr("k", 1)
	sp.AttrStr("k", "v")
	sp.Flag("f", true)
	sp.End()
	rec.RecordEvent(SpanRef{}, "c", "n", 1)
	rec.Link(SpanRef{Trace: 1, Span: 1}, SpanRef{Trace: 2, Span: 2})
	if rec.Records() != nil || rec.Cap() != 0 || rec.Dropped() != 0 {
		t.Error("nil recorder leaked state")
	}
}

func TestRecorderEndIdempotent(t *testing.T) {
	rec := NewRecorder(8)
	sp := rec.Start(SpanRef{}, "c", "n")
	sp.End()
	sp.End()
	if got := len(rec.Records()); got != 1 {
		t.Errorf("double End published %d records, want 1", got)
	}
}

// TestRecorderRootSpansAndEvents pins the parentless form wsnnet and
// pipeline record with: a zero parent opens a root span in a fresh
// trace, and an event under a zero parent is free-standing.
func TestRecorderRootSpansAndEvents(t *testing.T) {
	rec := NewRecorder(8)
	sp := rec.Start(SpanRef{}, "wsnnet", "collect")
	rec.RecordEvent(SpanRef{}, "wsnnet", "packet_lost", 1)
	sp.End()
	recs := rec.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if ev := recs[0]; ev.Kind != KindEvent || ev.Component != "wsnnet" || ev.Parent != 0 || ev.Value != 1 {
		t.Errorf("root event recorded as %+v", ev)
	}
	if span := recs[1]; span.Kind != KindSpan || span.Parent != 0 || span.Trace != TraceID(span.Span) {
		t.Errorf("root span recorded as %+v", span)
	}
	if recs[0].Trace == recs[1].Trace {
		t.Error("root span and free-standing event share a trace")
	}
}

func TestRecorderLink(t *testing.T) {
	rec := NewRecorder(8)
	a := rec.Start(SpanRef{}, "core", "localize_batch")
	b := rec.Start(SpanRef{}, "serve", "request")
	aref, bref := a.Ref(), b.Ref()
	rec.Link(aref, bref)
	rec.Link(SpanRef{}, bref) // invalid from: dropped
	a.End()
	b.End()
	recs := rec.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3 (invalid link dropped)", len(recs))
	}
	link := recs[0]
	if link.Kind != KindLink || link.Span != aref.Span || link.LinkSpan != bref.Span {
		t.Errorf("link = %+v", link)
	}
}

func TestRecorderConcurrentWriters(t *testing.T) {
	rec := NewRecorder(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := rec.Start(SpanRef{}, "test", "op")
				sp.Attr("worker", float64(w))
				rec.RecordEvent(sp.Ref(), "test", "tick", float64(i))
				sp.End()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // concurrent reader racing the writers
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = rec.Records()
		}
	}()
	wg.Wait()
	<-done
	recs := rec.Records()
	if len(recs) != 128 {
		t.Fatalf("ring holds %d records, want 128", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: %d then %d", i, recs[i-1].Seq, recs[i].Seq)
		}
	}
	if got := rec.Appended(); got != 8*200*2 {
		t.Errorf("Appended() = %d, want %d", got, 8*200*2)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	rec := NewRecorder(16)
	sp := rec.Start(SpanRef{}, "core", "localize")
	sp.Attr("star_fraction", 0.25)
	sp.AttrStr("target", "t7")
	rec.RecordEvent(sp.Ref(), "faults", "report_dropped", 3)
	sp.End()

	var buf bytes.Buffer
	recs := rec.Records()
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round-trip %d records, want %d", len(back), len(recs))
	}
	for i := range recs {
		a, b := recs[i], back[i]
		// time.Time survives RFC3339 with nanoseconds; compare fields.
		if a.Seq != b.Seq || a.Kind != b.Kind || a.Trace != b.Trace ||
			a.Span != b.Span || a.Parent != b.Parent || a.Value != b.Value ||
			a.Component != b.Component || a.Name != b.Name || !a.Start.Equal(b.Start) {
			t.Errorf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, b, a)
		}
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	rec := NewRecorder(32)
	root := rec.Start(SpanRef{}, "serve", "request")
	child := rec.Start(root.Ref(), "core", "localize")
	child.Attr("similarity", 1.5)
	rec.RecordEvent(child.Ref(), "faults", "report_dropped", 2)
	batch := rec.Start(SpanRef{}, "core", "localize_batch")
	rec.Link(batch.Ref(), root.Ref())
	child.End()
	root.End()
	batch.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rec.Records()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("chrome export is not valid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var complete, instant int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
		case "i":
			instant++
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Errorf("event %v missing numeric ts", ev["name"])
		}
	}
	if complete != 3 {
		t.Errorf("chrome export has %d complete events, want 3 spans", complete)
	}
	if instant != 2 { // the fault event + the link
		t.Errorf("chrome export has %d instants, want 2", instant)
	}
}

func TestChromeTraceSanitizesNonFinite(t *testing.T) {
	rec := NewRecorder(8)
	sp := rec.Start(SpanRef{}, "match", "match")
	sp.Attr("similarity", infinity())
	sp.End()
	rec.RecordEvent(SpanRef{}, "test", "nan", nan())
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, rec.Records()); err != nil {
		t.Fatalf("JSONL export failed on non-finite input: %v", err)
	}
	if strings.Contains(buf.String(), "Inf") || strings.Contains(buf.String(), "NaN") {
		t.Errorf("export leaked non-finite literals:\n%s", buf.String())
	}
}

func infinity() float64 { x := 1.0; return x / (x - 1) }
func nan() float64      { x := 0.0; return x / x }

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.Version == "" || b.GoVersion == "" || b.Revision == "" {
		t.Errorf("Build() left empty fields: %+v", b)
	}
	if s := b.String(); !strings.Contains(s, "go=") {
		t.Errorf("BuildInfo.String() = %q", s)
	}
	reg := NewRegistry()
	RegisterBuildInfo(reg)
	var buf bytes.Buffer
	if _, err := reg.Snapshot().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fttt_build_info{") || !strings.Contains(out, `goversion="`) {
		t.Errorf("snapshot missing build-info gauge:\n%s", out)
	}
}
