package desim

import (
	"testing"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	var e Engine
	var order []float64
	for _, at := range []float64{3, 1, 2, 5, 4} {
		at := at
		e.Schedule(at, func() { order = append(order, at) })
	}
	e.Run()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("events out of order: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d events, want 5", len(order))
	}
	if e.Processed != 5 {
		t.Errorf("Processed = %d", e.Processed)
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	var e Engine
	var seen []float64
	e.Schedule(2, func() { seen = append(seen, e.Now()) })
	e.Schedule(7, func() { seen = append(seen, e.Now()) })
	e.Run()
	if seen[0] != 2 || seen[1] != 7 {
		t.Errorf("clock values %v, want [2 7]", seen)
	}
	if e.Now() != 7 {
		t.Errorf("final Now = %v, want 7", e.Now())
	}
}

func TestCascadedScheduling(t *testing.T) {
	var e Engine
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.ScheduleIn(1, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Now() != 4 {
		t.Errorf("Now = %v, want 4", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	e.ScheduleIn(-1, func() {})
}

func TestStepEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty queue should be false")
	}
}

func TestManyEventsStayOrdered(t *testing.T) {
	var e Engine
	// Pseudo-random insertion order, deterministic.
	x := uint32(12345)
	var last float64 = -1
	bad := false
	for i := 0; i < 5000; i++ {
		x = x*1664525 + 1013904223
		at := float64(x%100000) / 100
		e.Schedule(at, func() {
			if e.Now() < last {
				bad = true
			}
			last = e.Now()
		})
	}
	e.Run()
	if bad {
		t.Error("clock ran backwards")
	}
	if e.Processed != 5000 {
		t.Errorf("Processed = %d", e.Processed)
	}
}
