package vclock

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// refClock is the specification of Simulated's event queue: the events in
// a slice kept sorted by (at, seq), a stopped event flagged and skipped when
// it reaches the front — the queue Simulated had before it tracked indices,
// with fired set. Single-goroutine; the script below is too.
type refClock struct {
	now    time.Time
	seq    uint64
	events []*refEvent
}

type refEvent struct {
	at               time.Time
	seq              uint64
	fn               func()
	cancelled, fired bool
}

func (ev *refEvent) Stop() bool {
	if ev.cancelled || ev.fired {
		return false
	}
	ev.cancelled = true
	return true
}

func (r *refClock) Now() time.Time { return r.now }

func (r *refClock) AfterFunc(d time.Duration, f func()) Timer {
	ev := &refEvent{at: r.now.Add(max(d, 0)), seq: r.seq, fn: f}
	r.seq++
	// After every event due no later: seq only grows, so that is (at, seq).
	i, _ := slices.BinarySearchFunc(r.events, ev, func(have, ev *refEvent) int {
		if have.at.After(ev.at) {
			return 1
		}
		return -1
	})
	r.events = slices.Insert(r.events, i, ev)
	return ev
}

func (r *refClock) Schedule(d time.Duration, f func()) { r.AfterFunc(d, f) }

func (r *refClock) live() []*refEvent {
	return slices.DeleteFunc(slices.Clone(r.events), func(ev *refEvent) bool { return ev.cancelled })
}

func (r *refClock) Pending() int { return len(r.live()) }

func (r *refClock) NextDeadline() (time.Time, bool) {
	if live := r.live(); len(live) > 0 {
		return live[0].at, true
	}
	return time.Time{}, false
}

func (r *refClock) Advance(d time.Duration) { r.AdvanceTo(r.now.Add(d)) }

func (r *refClock) AdvanceTo(target time.Time) {
	r.fire(func(ev *refEvent) bool { return !ev.at.After(target) })
	if target.After(r.now) {
		r.now = target
	}
}

func (r *refClock) RunUntilIdle() int {
	return r.fire(func(*refEvent) bool { return true })
}

// fire runs events from the front while due says so, moving now to each.
func (r *refClock) fire(due func(*refEvent) bool) (fired int) {
	for len(r.events) > 0 {
		ev := r.events[0]
		if !ev.cancelled && !due(ev) {
			break
		}
		r.events = r.events[1:]
		if ev.cancelled {
			continue
		}
		if ev.at.After(r.now) {
			r.now = ev.at
		}
		ev.fired = true
		ev.fn()
		fired++
	}
	return fired
}

// scriptClock is what a script drives: Simulated's surface.
type scriptClock interface {
	Now() time.Time
	AfterFunc(time.Duration, func()) Timer
	Schedule(time.Duration, func())
	Pending() int
	NextDeadline() (time.Time, bool)
	Advance(time.Duration)
	AdvanceTo(time.Time)
	RunUntilIdle() int
}

var (
	_ scriptClock = (*Simulated)(nil)
	_ scriptClock = (*refClock)(nil)
)

// scriptDelays are AfterFunc's and Advance's arguments: zero, equal ones so
// deadlines tie, one in the past, and a spread.
var scriptDelays = []time.Duration{
	0, 0, time.Millisecond, time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond,
	10 * time.Millisecond, time.Second, 2 * time.Second, -time.Millisecond, -time.Hour,
}

// runScript interprets script against c and returns everything observable:
// each firing with Now() at it, each Stop result, and Pending, NextDeadline
// and Now after every step. Events are armed by AfterFunc or by Schedule, so
// recycled events sit in the queue beside timers that are stopped and armed
// again. An event's callback may arm another event, stop an arbitrary timer
// (itself, an earlier one that fired, a later one due at the same instant)
// or do nothing — decided by bytes fixed when it was armed.
func runScript(c scriptClock, script []byte) []string {
	var log []string
	var timers []Timer
	events := 0
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	stop := func(who string, k int) {
		log = append(log, fmt.Sprintf("%s: stop %d = %v", who, k, timers[k].Stop()))
	}
	var arm func(delay time.Duration, act, arg byte, depth int, timerless bool)
	arm = func(delay time.Duration, act, arg byte, depth int, timerless bool) {
		id, slot := events, len(timers)
		events++
		fn := func() {
			log = append(log, fmt.Sprintf("fire %d at +%v", id, c.Now().Sub(epoch)))
			switch act % 4 {
			case 1:
				if depth < 3 { // chains end, so RunUntilIdle does
					arm(scriptDelays[int(arg)%len(scriptDelays)], arg>>2, arg*31+7, depth+1, arg&0x80 != 0)
				}
			case 2:
				if len(timers) > 0 {
					stop(fmt.Sprintf("in %d", id), int(arg)%len(timers))
				}
			case 3:
				if !timerless {
					stop(fmt.Sprintf("in %d", id), slot)
				}
			}
		}
		if timerless {
			c.Schedule(delay, fn)
			return
		}
		timers = append(timers, c.AfterFunc(delay, fn))
	}
	for len(script) > 0 {
		switch op := next(); op % 9 {
		case 0, 1:
			arm(scriptDelays[int(next())%len(scriptDelays)], next(), next(), 0, false)
		case 2: // deadlines spread wide, so the heap is deep and mixed when a Stop reaches into it
			arm(time.Duration(next())*time.Second+time.Duration(next())*time.Millisecond, next(), next(), 0, false)
		case 3:
			if len(timers) > 0 {
				stop("script", int(next())%len(timers))
			}
		case 4:
			if len(timers) > 0 {
				stop("script", len(timers)-1)
			}
		case 5:
			c.Advance(scriptDelays[int(next())%len(scriptDelays)])
		case 6: // an absolute instant, behind the clock as often as ahead
			c.AdvanceTo(epoch.Add(time.Duration(next()) * 2 * time.Millisecond))
		case 7:
			log = append(log, fmt.Sprintf("idle after %d", c.RunUntilIdle()))
		case 8: // an event nobody can stop, which the clock recycles as it fires
			arm(scriptDelays[int(next())%len(scriptDelays)], next(), next(), 0, true)
		}
		at, ok := c.NextDeadline()
		log = append(log, fmt.Sprintf("pending %d, next +%v %v, now +%v", c.Pending(), at.Sub(epoch), ok, c.Now().Sub(epoch)))
	}
	return log
}

func checkQueueMatchesReference(t *testing.T, script []byte) {
	t.Helper()
	got := runScript(NewSimulated(epoch), script)
	want := runScript(&refClock{now: epoch}, script)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("script %x diverges at line %d:\n simulated: %v\n reference: %v", script, i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("script %x: simulated logged %d lines, the reference %d", script, len(got), len(want))
	}
}

func queueScript(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	script := make([]byte, n)
	rng.Read(script)
	return script
}

// TestEventQueueMatchesReference: Simulated's index-tracked heap of live
// events and the sorted, lazily-deleting reference agree on everything a
// caller can see, step by step.
func TestEventQueueMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		checkQueueMatchesReference(t, queueScript(seed, 1200))
	}
	// Timers armed and stopped from a second goroutine, as a blocking
	// Deployment.Do caller does beside the one that advances: every one either
	// fires once or was stopped, never both, and none is left queued.
	t.Run("armed beside the advancing goroutine", func(t *testing.T) {
		c := NewSimulated(epoch)
		const n = 2000
		fired, stopped := make([]int, n), make([]bool, n)
		var mu sync.Mutex
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				fn := func() {
					mu.Lock()
					fired[i]++
					mu.Unlock()
				}
				if i%5 == 1 { // recycled events beside the timers
					c.Schedule(time.Duration(i%7)*time.Millisecond, fn)
					continue
				}
				tm := c.AfterFunc(time.Duration(i%7)*time.Millisecond, fn)
				if i%3 == 0 {
					stopped[i] = tm.Stop()
				}
			}
		}()
		for i := 0; i < 200; i++ {
			c.Advance(time.Millisecond)
		}
		wg.Wait()
		c.RunUntilIdle()
		for i := range fired {
			want := 1
			if stopped[i] {
				want = 0
			}
			if fired[i] != want {
				t.Fatalf("timer %d: Stop() = %v and it fired %d times", i, stopped[i], fired[i])
			}
		}
		if c.Pending() != 0 {
			t.Fatalf("%d events left after RunUntilIdle", c.Pending())
		}
	})
}

func FuzzEventQueueMatchesReference(f *testing.F) {
	for seed := int64(100); seed < 104; seed++ {
		f.Add(queueScript(seed, 120))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		checkQueueMatchesReference(t, script)
	})
}

// TestStopAfterFireReportsFalse: Stop reports whether it prevented the call.
// A timer that fired — or is firing — was not prevented; a later timer due
// at the same instant, stopped from an earlier one's callback, is.
func TestStopAfterFireReportsFalse(t *testing.T) {
	c := NewSimulated(epoch)
	tm := c.AfterFunc(time.Millisecond, func() {})
	c.Advance(time.Millisecond)
	if tm.Stop() {
		t.Fatal("Stop() = true on a timer that already fired")
	}

	var self Timer
	var inside bool
	self = c.AfterFunc(time.Millisecond, func() { inside = self.Stop() })
	c.Advance(time.Millisecond)
	if inside {
		t.Fatal("Stop() = true from inside the timer's own callback")
	}

	var later Timer
	var prevented, laterFired bool
	c.AfterFunc(time.Millisecond, func() { prevented = later.Stop() })
	later = c.AfterFunc(time.Millisecond, func() { laterFired = true })
	c.Advance(time.Millisecond)
	if !prevented || laterFired {
		t.Fatalf("stopping a later timer at the same instant: Stop() = %v, fired = %v", prevented, laterFired)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", c.Pending())
	}
}
