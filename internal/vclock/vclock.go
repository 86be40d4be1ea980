// Package vclock provides the virtual time base used by the simulated
// distributed substrate. All components in this repository take a Clock so
// that tests, benchmarks and examples run deterministically under a
// simulated clock.
//
// The simulated clock is also a discrete-event scheduler: goroutines
// register timers, and Advance drains them in timestamp order. This is the
// standard deterministic-simulation design used by network simulators.
//
// The package also carries the information viewpoint's causality record
// (see ARCHITECTURE.md): Version is the per-site version vector kept on
// every replicated information object, with a canonical binary encoding
// (AppendBinary/DecodeVersion) so vectors round-trip byte-for-byte
// through the durable log and the sync wire.
package vclock

import (
	"math"
	"sync"
	"time"
)

// Clock abstracts time for all simulated components.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// After returns a channel that receives the then-current time once d
	// has elapsed.
	After(d time.Duration) <-chan time.Time
	// AfterFunc schedules f to run once d has elapsed. The returned Timer
	// can cancel the call.
	AfterFunc(d time.Duration, f func()) Timer
	// Sleep blocks until d has elapsed.
	Sleep(d time.Duration)
}

// Timer is a cancellable pending call created by AfterFunc.
type Timer interface {
	// Stop cancels the timer. It reports whether the call was prevented
	// from firing.
	Stop() bool
}

// Simulated is a deterministic discrete-event clock. Time only moves when
// Advance or Run is called, and pending events fire in (time, sequence)
// order, so a simulation that schedules the same events always produces the
// same interleaving.
type Simulated struct {
	mu  sync.Mutex
	now time.Time
	seq uint64
	// events is a min-heap by (ns, seq) of the live events only: a fired or
	// stopped event is not in it, and each event knows its own slot.
	events []*event
}

// NewSimulated returns a simulated clock starting at the given epoch.
func NewSimulated(epoch time.Time) *Simulated {
	return &Simulated{now: epoch}
}

// Now implements Clock.
func (s *Simulated) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// After implements Clock.
func (s *Simulated) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	s.AfterFunc(d, func() {
		// Buffered: the send never blocks event processing.
		ch <- s.Now()
	})
	return ch
}

// Sleep implements Clock. Under a simulated clock Sleep parks the calling
// goroutine until some other goroutine advances time past the deadline.
func (s *Simulated) Sleep(d time.Duration) {
	<-s.After(d)
}

// AfterFunc implements Clock. The returned Timer is the queued event itself.
func (s *Simulated) AfterFunc(d time.Duration, f func()) Timer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	at := s.now.Add(d)
	ev := &event{clock: s, at: at, ns: at.UnixNano(), seq: s.seq, fn: f, index: len(s.events)}
	s.seq++
	s.events = append(s.events, ev)
	s.siftUp(ev.index)
	return ev
}

// Pending reports the number of scheduled events that have not yet fired.
func (s *Simulated) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// NextDeadline returns the timestamp of the earliest pending event and
// whether one exists.
func (s *Simulated) NextDeadline() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) == 0 {
		return time.Time{}, false
	}
	return s.events[0].at, true
}

// Advance moves the clock forward by d, firing every event whose deadline
// falls within the window, in order. Callbacks run on the calling
// goroutine; callbacks may schedule further events, which also fire if they
// fall within the window.
func (s *Simulated) Advance(d time.Duration) {
	s.mu.Lock()
	target := s.now.Add(d)
	s.mu.Unlock()
	s.AdvanceTo(target)
}

// AdvanceTo moves the clock to the given instant (it never moves backwards)
// firing due events in order.
func (s *Simulated) AdvanceTo(target time.Time) {
	limit := target.UnixNano()
	for {
		s.mu.Lock()
		ev := s.popDueLocked(limit)
		if ev == nil {
			if target.After(s.now) {
				s.now = target
			}
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		ev.fn()
	}
}

// RunUntilIdle fires all pending events regardless of timestamp, advancing
// the clock as needed, until no events remain. It returns the number of
// events fired. Use it to drain a simulation to quiescence.
func (s *Simulated) RunUntilIdle() int {
	fired := 0
	for {
		s.mu.Lock()
		ev := s.popDueLocked(math.MaxInt64)
		s.mu.Unlock()
		if ev == nil {
			return fired
		}
		ev.fn()
		fired++
	}
}

// popDueLocked removes and returns the earliest event if it is due by limit
// (nil otherwise) and moves the clock to it; the caller runs its callback
// outside the lock.
func (s *Simulated) popDueLocked(limit int64) *event {
	if len(s.events) == 0 || s.events[0].ns > limit {
		return nil
	}
	ev := s.events[0]
	s.removeLocked(ev)
	if ev.at.After(s.now) {
		s.now = ev.at
	}
	return ev
}

// event is one scheduled call, and the Timer AfterFunc hands out for it.
type event struct {
	clock *Simulated
	at    time.Time
	ns    int64 // at.UnixNano(): the heap compares integers
	seq   uint64
	fn    func()
	index int // slot in clock.events; -1 once fired or stopped
}

// Stop implements Timer: a pending event leaves the queue at once, taking
// its closure with it. An event that fired, is firing or was stopped before
// is no longer queued, and Stop reports false.
func (ev *event) Stop() bool {
	s := ev.clock
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.index < 0 {
		return false
	}
	s.removeLocked(ev)
	ev.fn = nil
	return true
}

func (ev *event) before(o *event) bool {
	return ev.ns < o.ns || ev.ns == o.ns && ev.seq < o.seq
}

// removeLocked takes ev out of the heap, wherever it sits.
func (s *Simulated) removeLocked(ev *event) {
	i, last := ev.index, len(s.events)-1
	s.place(i, s.events[last])
	s.events[last] = nil
	s.events = s.events[:last]
	ev.index = -1
	if i < last {
		// The event moved into the hole came from a leaf of some other
		// subtree: it may belong above the hole or below it.
		s.siftDown(i)
		s.siftUp(i)
	}
}

func (s *Simulated) place(i int, ev *event) {
	s.events[i] = ev
	ev.index = i
}

func (s *Simulated) siftUp(i int) {
	ev := s.events[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(s.events[parent]) {
			break
		}
		s.place(i, s.events[parent])
		i = parent
	}
	s.place(i, ev)
}

func (s *Simulated) siftDown(i int) {
	ev := s.events[i]
	for {
		child := 2*i + 1
		if child >= len(s.events) {
			break
		}
		if r := child + 1; r < len(s.events) && s.events[r].before(s.events[child]) {
			child = r
		}
		if !s.events[child].before(ev) {
			break
		}
		s.place(i, s.events[child])
		i = child
	}
	s.place(i, ev)
}

var _ Clock = (*Simulated)(nil)
