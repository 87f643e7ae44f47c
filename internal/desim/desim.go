// Package desim is a small discrete-event simulation engine: a virtual
// clock and a priority queue of timestamped events. The wsnnet substrate
// uses it to model sampling rounds, per-hop packet forwarding delays and
// losses of the outdoor system reproduction (Fig. 13).
package desim

import (
	"container/heap"
	"fmt"
)

// Event is a scheduled callback. Fn runs at virtual time At; it may
// schedule further events.
type Event struct {
	At float64
	Fn func()

	seq int // tie-break: FIFO among equal timestamps
}

// Engine owns the virtual clock and the pending event queue. The zero
// value is ready to use.
type Engine struct {
	now    float64
	queue  eventHeap
	nextID int
	// Processed counts the events executed so far.
	Processed int
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule enqueues fn to run at absolute virtual time at. Scheduling in
// the past panics — it would silently reorder causality.
func (e *Engine) Schedule(at float64, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("desim: scheduling at %v before now %v", at, e.now))
	}
	e.nextID++
	heap.Push(&e.queue, &Event{At: at, Fn: fn, seq: e.nextID})
}

// ScheduleIn enqueues fn after a relative delay (>= 0).
func (e *Engine) ScheduleIn(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("desim: negative delay %v", delay))
	}
	e.Schedule(e.now+delay, fn)
}

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	e.now = ev.At
	e.Processed++
	ev.Fn()
	return true
}

// Run executes all pending events (including ones scheduled while
// running).
func (e *Engine) Run() {
	for e.Step() {
	}
}

// eventHeap orders events by timestamp, then FIFO.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
