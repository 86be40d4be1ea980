package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mocca/internal/netsim"
	"mocca/internal/wire"
)

// raceEnabled is set by race_test.go when the tests run under -race.
var raceEnabled bool

// TestCallAllocations prices the rpc seams. An echo call — Go, serve,
// reply — allocates the call's correlation id, its timeout's Timer and, per
// frame (request, reply), the decoded literal text; the caller's callback is
// built once, outside the count. The pendingCall comes from a pool with its
// expiry func bound, the frames' buffers from the channel's free list, the
// delivery events from the clock's, the envelopes on both sides are pooled,
// and an untraced call holds no span. An announcement allocates its decoded
// literal text and nothing else.
func TestCallAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what is put back, so pooled paths allocate")
	}
	f := newFixture(t)
	f.b.MustRegister("echo", func(r Request) ([]byte, error) { return r.Body, nil })
	body := bytes.Repeat([]byte("row "), 128)
	var echoed bool
	done := func(r Result) { echoed = r.Err == nil && bytes.Equal(r.Body, body) } // the body is lent to done
	n := testing.AllocsPerRun(300, func() {
		echoed = false
		f.a.Go("b", "echo", body, done)
		f.clk.RunUntilIdle()
		if !echoed {
			t.Fatal("the echo did not return the body")
		}
	})
	if n > 4 {
		t.Errorf("an echo call allocates %v times, want at most 4", n)
	}

	seen := 0
	f.b.MustRegister("note", func(r Request) ([]byte, error) { seen += len(r.Body); return nil, nil })
	n = testing.AllocsPerRun(300, func() {
		if err := f.a.Announce("b", "note", body); err != nil {
			t.Fatal(err)
		}
		f.clk.RunUntilIdle()
	})
	if n > 1 {
		t.Errorf("an announcement allocates %v times, want at most 1", n)
	}
	if seen != 301*len(body) {
		t.Fatalf("announcements delivered %d bytes, want %d", seen, 301*len(body))
	}

	// A typed handler decodes into a request from its own pool: the same
	// announcement to one costs nothing more.
	sum := 0
	f.b.MustRegister("typed", Handle(func(_ netsim.Address, n note) (wire.Empty, error) { sum += n.Seq; return wire.Empty{}, nil }))
	typed, _ := note{Seq: 1}.AppendBinary(nil)
	n = testing.AllocsPerRun(300, func() {
		if err := f.a.Announce("b", "typed", typed); err != nil {
			t.Fatal(err)
		}
		f.clk.RunUntilIdle()
	})
	if n > 1 {
		t.Errorf("an announcement to a typed handler allocates %v times, want at most 1", n)
	}
	if sum != 301 {
		t.Fatalf("the typed handler read %d notes, want 301", sum)
	}
}

// TestConcurrentCallsShareNoEnvelope: blocking callers fill request
// envelopes on their own goroutines while the goroutine advancing the
// simulated clock decodes, serves and replies — every pool the path uses is
// reached from both sides at once. Every reply must be its own request's.
func TestConcurrentCallsShareNoEnvelope(t *testing.T) {
	f := newFixture(t)
	f.b.MustRegister("echo", func(r Request) ([]byte, error) { return r.Body, nil })

	var stop atomic.Bool
	driven := make(chan struct{})
	go func() {
		defer close(driven)
		for !stop.Load() {
			if at, ok := f.clk.NextDeadline(); ok {
				f.clk.AdvanceTo(at)
			} else {
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				req := []byte(fmt.Sprintf("caller %d call %d %s", g, i, bytes.Repeat([]byte{'x'}, (g*200+i)%97)))
				reply := make(chan Result, 1)
				f.a.Go("b", "echo", req, func(r Result) { reply <- kept(r) }, CallTimeout(time.Minute))
				r := <-reply
				got, err := r.Body, r.Err
				if err != nil || !bytes.Equal(got, req) {
					t.Errorf("caller %d call %d: reply %q, %v; want %q", g, i, got, err, req)
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-driven
	if st := f.a.Stats(); st.CallsSent != 800 || st.Timeouts != 0 {
		t.Fatalf("stats = %+v, want 800 calls and no timeout", st)
	}
}

// TestEmptyErrorTextIsStillAnError: a handler's error travels in the reply's
// error header, which is present exactly when the handler failed — an error
// whose text is empty included.
func TestEmptyErrorTextIsStillAnError(t *testing.T) {
	f := newFixture(t)
	f.b.MustRegister("mute", func(Request) ([]byte, error) { return []byte("ignored"), errors.New("") })
	f.b.MustRegister("fine", func(Request) ([]byte, error) { return nil, nil })
	var mute, fine Result
	f.a.Go("b", "mute", nil, func(r Result) { mute = r })
	f.a.Go("b", "fine", nil, func(r Result) { fine = r })
	f.clk.RunUntilIdle()
	var remote *RemoteError
	if !errors.As(mute.Err, &remote) || remote.Msg != "" || remote.Method != "mute" {
		t.Fatalf("mute: err = %#v, want a RemoteError with empty text", mute.Err)
	}
	if fine.Err != nil {
		t.Fatalf("fine: err = %v", fine.Err)
	}
}
