package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// This file is the structured tracing subsystem (DESIGN.md §12):
// trace/span identifiers with parent→child links and key/value
// attributes, recorded into a bounded lock-free ring buffer (Recorder)
// that keeps the last-N records. The contracts mirror the rest of obs:
//
//   - nil is off: every Recorder and ActiveSpan method no-ops on a nil
//     receiver with zero allocations, so instrumented hot paths carry
//     only pointer checks when tracing is disabled;
//   - recording consumes no randomness and never feeds back into the
//     instrumented computation, so traced runs stay byte-identical to
//     untraced ones;
//   - the ring is safe for concurrent writers and readers (atomic slot
//     pointers + an atomic sequence counter), so LocalizeBatch workers
//     can record in parallel while a debug endpoint snapshots.

// TraceID identifies one causal tree of spans (e.g. one serving
// request with everything it triggered). Zero is "no trace".
type TraceID uint64

// SpanID identifies one span within the Recorder. Zero is "no span".
type SpanID uint64

// SpanRef names a span so other spans can parent under it or link to
// it. The zero SpanRef is the absence of a span: starting a child under
// it begins a fresh trace.
type SpanRef struct {
	Trace TraceID `json:"trace"`
	Span  SpanID  `json:"span"`
}

// Valid reports whether the reference names a real span.
func (r SpanRef) Valid() bool { return r.Span != 0 }

// Record kinds.
const (
	// KindSpan is a completed span: Start/Dur bracket the operation.
	KindSpan = "span"
	// KindEvent is an instantaneous occurrence attached to a parent
	// span (or free-standing when Parent is zero).
	KindEvent = "event"
	// KindLink ties two spans across traces — e.g. a batch span linking
	// the coalesced request spans it executed.
	KindLink = "link"
)

// Attr is one key/value span attribute. Exactly one of Str/Num is
// meaningful; numeric attributes leave Str empty.
type Attr struct {
	Key string  `json:"k"`
	Str string  `json:"s,omitempty"`
	Num float64 `json:"n,omitempty"`
}

// Record is one entry of the Recorder's ring: a completed span, an
// event, or a link. Records are immutable once published.
type Record struct {
	// Seq is the record's global sequence number (append order).
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`

	Trace  TraceID `json:"trace"`
	Span   SpanID  `json:"span,omitempty"`
	Parent SpanID  `json:"parent,omitempty"`

	Component string `json:"component,omitempty"`
	Name      string `json:"name,omitempty"`

	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur,omitempty"`

	// Value carries an event's numeric payload.
	Value float64 `json:"value,omitempty"`
	Attrs []Attr  `json:"attrs,omitempty"`

	// LinkTrace/LinkSpan are the target of a KindLink record.
	LinkTrace TraceID `json:"linkTrace,omitempty"`
	LinkSpan  SpanID  `json:"linkSpan,omitempty"`
}

// Recorder is a bounded, lock-free trace sink: the last Cap() records
// survive, older ones are overwritten. A nil *Recorder is "tracing
// off" — every method no-ops at pointer-check cost, which is the
// contract that lets instrumented hot paths stay allocation-free.
// Components that trace without a parent span (wsnnet's collection
// rounds, pipeline rounds) pass the zero SpanRef: Start then opens a
// root span in a fresh trace and RecordEvent a free-standing event.
type Recorder struct {
	slots []atomic.Pointer[Record]
	next  atomic.Uint64 // total records appended
	ids   atomic.Uint64 // span ID allocator
}

// DefaultRecorderCap is the ring capacity NewRecorder applies for
// non-positive requests — roomy enough for a few hundred localization
// rounds (a round emits ~4-8 records).
const DefaultRecorderCap = 4096

// NewRecorder returns a Recorder keeping the last capacity records
// (≤ 0 selects DefaultRecorderCap).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &Recorder{slots: make([]atomic.Pointer[Record], capacity)}
}

// Cap returns the ring capacity; 0 on a nil recorder.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Appended returns how many records were ever appended.
func (r *Recorder) Appended() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Dropped returns how many records the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if n, c := r.Appended(), uint64(r.Cap()); n > c {
		return n - c
	}
	return 0
}

// publish claims the next sequence number and stores rec in its slot.
func (r *Recorder) publish(rec *Record) {
	rec.Seq = r.next.Add(1) - 1
	r.slots[rec.Seq%uint64(len(r.slots))].Store(rec)
}

// Records snapshots the ring's surviving records in append order. The
// snapshot is consistent per record (records are immutable) but not
// across records: writers racing the snapshot may add or overwrite
// entries while it runs. Nil-safe (returns nil).
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	out := make([]Record, 0, len(r.slots))
	for i := range r.slots {
		if p := r.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Start opens a span under parent (zero parent begins a fresh trace).
// The returned ActiveSpan is a stack value: annotate it with Attr/
// AttrStr/Flag and publish it with End. On a nil recorder the span is
// inert — every method no-ops and no clock is read.
func (r *Recorder) Start(parent SpanRef, component, name string) ActiveSpan {
	if r == nil {
		return ActiveSpan{}
	}
	id := SpanID(r.ids.Add(1))
	trace := parent.Trace
	if trace == 0 {
		trace = TraceID(id)
	}
	return ActiveSpan{
		rec:       r,
		ref:       SpanRef{Trace: trace, Span: id},
		parent:    parent.Span,
		component: component,
		name:      name,
		start:     time.Now(),
	}
}

// RecordEvent appends an event under parent (zero parent = free-standing).
func (r *Recorder) RecordEvent(parent SpanRef, component, name string, value float64) {
	if r == nil {
		return
	}
	id := SpanID(r.ids.Add(1))
	trace := parent.Trace
	if trace == 0 {
		trace = TraceID(id)
	}
	r.publish(&Record{
		Kind: KindEvent, Trace: trace, Span: id, Parent: parent.Span,
		Component: component, Name: name,
		Start: time.Now(), Value: sanitizeNum(value),
	})
}

// Link records a causal link from one span to another — the batch-span
// → request-span edges the serving layer emits. Invalid refs no-op.
func (r *Recorder) Link(from, to SpanRef) {
	if r == nil || !from.Valid() || !to.Valid() {
		return
	}
	r.publish(&Record{
		Kind: KindLink, Trace: from.Trace, Span: from.Span,
		Start:     time.Now(),
		LinkTrace: to.Trace, LinkSpan: to.Span,
	})
}

// maxSpanAttrs is ActiveSpan's inline attribute capacity. It is a
// fixed array so annotating a span never allocates; extra attributes
// beyond it are silently dropped.
const maxSpanAttrs = 8

// ActiveSpan is an open span in flight. It is a value type living on
// the instrumented function's stack: attribute setters write into a
// fixed inline array and End publishes one Record, so the only heap
// allocation of a traced span is the published record itself. The zero
// ActiveSpan (from a nil recorder) is inert.
//
// An ActiveSpan is single-goroutine, like the code paths it brackets.
type ActiveSpan struct {
	rec       *Recorder
	ref       SpanRef
	parent    SpanID
	component string
	name      string
	start     time.Time
	n         int
	attrs     [maxSpanAttrs]Attr
}

// Active reports whether the span will record (false for spans from a
// nil recorder, and after End).
func (s *ActiveSpan) Active() bool { return s.rec != nil }

// Ref returns the span's reference for parenting children or linking;
// zero when inert.
func (s *ActiveSpan) Ref() SpanRef {
	if s.rec == nil {
		return SpanRef{}
	}
	return s.ref
}

// Attr records a numeric attribute (non-finite values are clamped).
func (s *ActiveSpan) Attr(key string, v float64) {
	if s.rec == nil || s.n == maxSpanAttrs {
		return
	}
	s.attrs[s.n] = Attr{Key: key, Num: sanitizeNum(v)}
	s.n++
}

// AttrStr records a string attribute.
func (s *ActiveSpan) AttrStr(key, v string) {
	if s.rec == nil || s.n == maxSpanAttrs {
		return
	}
	s.attrs[s.n] = Attr{Key: key, Str: v}
	s.n++
}

// Flag records a boolean attribute, but only when on — absent flags
// read as false, which keeps the common all-false case recordless.
func (s *ActiveSpan) Flag(key string, on bool) {
	if on {
		s.Attr(key, 1)
	}
}

// End publishes the span. Idempotent; no-op when inert.
func (s *ActiveSpan) End() {
	if s.rec == nil {
		return
	}
	rec := &Record{
		Kind: KindSpan, Trace: s.ref.Trace, Span: s.ref.Span, Parent: s.parent,
		Component: s.component, Name: s.name,
		Start: s.start, Dur: time.Since(s.start),
	}
	if s.n > 0 {
		rec.Attrs = append([]Attr(nil), s.attrs[:s.n]...)
	}
	s.rec.publish(rec)
	s.rec = nil
}

// sanitizeNum clamps non-finite values so every Record marshals to
// valid JSON (encoding/json rejects NaN and ±Inf).
func sanitizeNum(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	default:
		return v
	}
}
