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
)

// raceEnabled is set by race_test.go when the tests run under -race.
var raceEnabled bool

// TestCallAllocations prices the rpc seams. An echo call — Go, serve,
// reply — allocates the call's correlation id and pendingCall, its timeout
// closure and timer event, and per frame (request, reply) the frame's bytes,
// the clock event that delivers it and the decoded header text; the caller's
// callback is built once, outside the count. An announcement is one frame
// and nothing else. Envelopes on both sides are pooled, and an untraced call
// holds no span.
func TestCallAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what is put back, so pooled paths allocate")
	}
	f := newFixture(t)
	f.b.MustRegister("echo", func(r Request) ([]byte, error) { return r.Body, nil })
	body := bytes.Repeat([]byte("row "), 128)
	var res Result
	done := func(r Result) { res = r }
	n := testing.AllocsPerRun(300, func() {
		f.a.Go("b", "echo", body, done)
		f.clk.RunUntilIdle()
		if res.Err != nil || !bytes.Equal(res.Body, body) {
			t.Fatalf("echo returned %d bytes, err %v", len(res.Body), res.Err)
		}
	})
	if n > 11 {
		t.Errorf("an echo call allocates %v times, want at most 11", n)
	}

	seen := 0
	f.b.MustRegister("note", func(r Request) ([]byte, error) { seen += len(r.Body); return nil, nil })
	n = testing.AllocsPerRun(300, func() {
		if err := f.a.Announce("b", "note", body); err != nil {
			t.Fatal(err)
		}
		f.clk.RunUntilIdle()
	})
	if n > 4 {
		t.Errorf("an announcement allocates %v times, want at most 4", n)
	}
	if seen != 301*len(body) {
		t.Fatalf("announcements delivered %d bytes, want %d", seen, 301*len(body))
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
				got, err := f.a.Call("b", "echo", req, CallTimeout(time.Minute))
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
