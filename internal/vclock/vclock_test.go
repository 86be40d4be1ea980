package vclock

import (
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(1992, time.June, 9, 0, 0, 0, 0, time.UTC)

func TestSimulatedNow(t *testing.T) {
	c := NewSimulated(epoch)
	if got := c.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
	c.Advance(3 * time.Second)
	if got := c.Now(); !got.Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("Now() after Advance = %v, want %v", got, epoch.Add(3*time.Second))
	}
}

func TestAfterFuncFiresInOrder(t *testing.T) {
	c := NewSimulated(epoch)
	var order []int
	c.AfterFunc(30*time.Millisecond, func() { order = append(order, 3) })
	c.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
	c.AfterFunc(20*time.Millisecond, func() { order = append(order, 2) })
	c.Advance(time.Second)
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAfterFuncSameDeadlineFIFO(t *testing.T) {
	c := NewSimulated(epoch)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.AfterFunc(time.Millisecond, func() { order = append(order, i) })
	}
	c.Advance(time.Millisecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-deadline events fired out of registration order: %v", order)
		}
	}
}

func TestAdvancePartial(t *testing.T) {
	c := NewSimulated(epoch)
	var fired atomic.Int32
	c.AfterFunc(10*time.Millisecond, func() { fired.Add(1) })
	c.AfterFunc(50*time.Millisecond, func() { fired.Add(1) })
	c.Advance(20 * time.Millisecond)
	if got := fired.Load(); got != 1 {
		t.Fatalf("fired = %d after partial advance, want 1", got)
	}
	c.Advance(40 * time.Millisecond)
	if got := fired.Load(); got != 2 {
		t.Fatalf("fired = %d after full advance, want 2", got)
	}
}

func TestTimerStop(t *testing.T) {
	c := NewSimulated(epoch)
	var fired atomic.Int32
	tm := c.AfterFunc(10*time.Millisecond, func() { fired.Add(1) })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer, want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	c.Advance(time.Second)
	if got := fired.Load(); got != 0 {
		t.Fatalf("stopped timer fired %d times", got)
	}
}

func TestCascadedEventsWithinWindow(t *testing.T) {
	c := NewSimulated(epoch)
	var order []string
	c.AfterFunc(10*time.Millisecond, func() {
		order = append(order, "outer")
		c.AfterFunc(5*time.Millisecond, func() { order = append(order, "inner") })
	})
	c.Advance(20 * time.Millisecond)
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("cascaded order = %v, want [outer inner]", order)
	}
	if got := c.Now(); !got.Equal(epoch.Add(20 * time.Millisecond)) {
		t.Fatalf("clock = %v, want %v", got, epoch.Add(20*time.Millisecond))
	}
}

func TestRunUntilIdle(t *testing.T) {
	c := NewSimulated(epoch)
	depth := 0
	var schedule func()
	schedule = func() {
		if depth < 10 {
			depth++
			c.AfterFunc(time.Hour, schedule)
		}
	}
	schedule()
	fired := c.RunUntilIdle()
	if fired != 10 {
		t.Fatalf("RunUntilIdle fired %d, want 10", fired)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after RunUntilIdle, want 0", c.Pending())
	}
}

func TestAfterChannelDelivers(t *testing.T) {
	c := NewSimulated(epoch)
	ch := c.After(time.Minute)
	select {
	case <-ch:
		t.Fatal("After channel delivered before Advance")
	default:
	}
	c.Advance(time.Minute)
	select {
	case at := <-ch:
		if !at.Equal(epoch.Add(time.Minute)) {
			t.Fatalf("delivered time = %v, want %v", at, epoch.Add(time.Minute))
		}
	default:
		t.Fatal("After channel empty after Advance")
	}
}

func TestNegativeDelayFiresImmediately(t *testing.T) {
	c := NewSimulated(epoch)
	var fired bool
	c.AfterFunc(-time.Second, func() { fired = true })
	c.Advance(0)
	if !fired {
		t.Fatal("negative-delay event did not fire at Advance(0)")
	}
}

func TestNextDeadline(t *testing.T) {
	c := NewSimulated(epoch)
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("NextDeadline ok on empty clock")
	}
	c.AfterFunc(5*time.Second, func() {})
	tm := c.AfterFunc(time.Second, func() {})
	at, ok := c.NextDeadline()
	if !ok || !at.Equal(epoch.Add(time.Second)) {
		t.Fatalf("NextDeadline = %v,%v want %v,true", at, ok, epoch.Add(time.Second))
	}
	tm.Stop()
	at, ok = c.NextDeadline()
	if !ok || !at.Equal(epoch.Add(5*time.Second)) {
		t.Fatalf("NextDeadline after Stop = %v,%v want %v,true", at, ok, epoch.Add(5*time.Second))
	}
}

// TestScheduleRecyclesEvents: an event nobody can stop costs nothing once
// the clock has one to recycle — a callback that schedules its successor
// takes the event that just fired — while AfterFunc's Timer is the one
// allocation it always was.
func TestScheduleRecyclesEvents(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	c := NewSimulated(epoch)
	fn := func() {}
	var chain func()
	chain = func() { c.Schedule(time.Millisecond, fn) }
	c.Schedule(0, fn)
	c.Advance(time.Millisecond)
	if n := testing.AllocsPerRun(100, func() {
		c.Schedule(time.Millisecond, chain)
		c.Advance(2 * time.Millisecond)
	}); n != 0 {
		t.Fatalf("Schedule and fire: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		c.AfterFunc(time.Millisecond, fn)
		c.Advance(time.Millisecond)
	}); n != 1 {
		t.Fatalf("AfterFunc and fire: %v allocations, want 1", n)
	}
}
