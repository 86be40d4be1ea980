package rpc

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"mocca/internal/channel"
	"mocca/internal/netsim"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

type fixture struct {
	clk *vclock.Simulated
	net *netsim.Network
	a   *Endpoint
	b   *Endpoint
}

func newFixture(t *testing.T, opts ...Option) *fixture {
	t.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(3))
	a := NewEndpoint(net.MustAddNode("a"), clk, opts...)
	b := NewEndpoint(net.MustAddNode("b"), clk, opts...)
	return &fixture{clk: clk, net: net, a: a, b: b}
}

// kept is what a test keeps of a Result past its callback: a reply's body
// is lent to the callback only, so it is copied out there.
func kept(r Result) Result { return Result{Body: bytes.Clone(r.Body), Err: r.Err} }

func TestRequestReply(t *testing.T) {
	f := newFixture(t)
	f.b.MustRegister("echo", func(r Request) ([]byte, error) {
		return append([]byte("echo:"), r.Body...), nil
	})
	var got Result
	f.a.Go("b", "echo", []byte("hi"), func(r Result) { got = kept(r) })
	f.clk.RunUntilIdle()
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if string(got.Body) != "echo:hi" {
		t.Fatalf("body = %q, want %q", got.Body, "echo:hi")
	}
}

func TestRemoteError(t *testing.T) {
	f := newFixture(t)
	f.b.MustRegister("fail", func(r Request) ([]byte, error) {
		return nil, errors.New("boom")
	})
	var got Result
	f.a.Go("b", "fail", nil, func(r Result) { got = r })
	f.clk.RunUntilIdle()
	var remote *RemoteError
	if !errors.As(got.Err, &remote) {
		t.Fatalf("err = %v, want *RemoteError", got.Err)
	}
	if remote.Msg != "boom" || remote.Method != "fail" {
		t.Fatalf("remote = %+v", remote)
	}
	if st := f.a.Stats(); st.RemoteErrors != 1 {
		t.Fatalf("RemoteErrors = %d, want 1", st.RemoteErrors)
	}
}

// TestHandleRefusedHearsRefusedBodies: a HandleRefused handler's refused
// hears of each body the decoder refused, with the decoder's error, and
// the caller still gets that error — but not of an error the handler
// itself returns, nor of a body it read.
func TestHandleRefusedHearsRefusedBodies(t *testing.T) {
	f := newFixture(t)
	var heard []error
	f.b.MustRegister("strict", HandleRefused(func(netsim.Address, wire.TraceContext, wire.Empty) (wire.Empty, error) {
		return wire.Empty{}, errors.New("handler says no")
	}, func(err error) { heard = append(heard, err) }))
	var refused, failed Result
	f.a.Go("b", "strict", []byte{1}, func(r Result) { refused = r })
	f.a.Go("b", "strict", nil, func(r Result) { failed = r })
	f.clk.RunUntilIdle()
	var remote *RemoteError
	if len(heard) != 1 || !errors.Is(heard[0], wire.ErrBadBody) {
		t.Fatalf("heard %v, want the one decoder error", heard)
	}
	if !errors.As(refused.Err, &remote) || remote.Msg != heard[0].Error() {
		t.Fatalf("the refused call answered %v, want the decoder's error %q", refused.Err, heard[0])
	}
	if !errors.As(failed.Err, &remote) || remote.Msg != "handler says no" {
		t.Fatalf("the failing call answered %v, want the handler's error", failed.Err)
	}
}

func TestNoSuchMethod(t *testing.T) {
	f := newFixture(t)
	var got Result
	f.a.Go("b", "missing", nil, func(r Result) { got = r })
	f.clk.RunUntilIdle()
	var remote *RemoteError
	if !errors.As(got.Err, &remote) {
		t.Fatalf("err = %v, want *RemoteError", got.Err)
	}
	if !strings.Contains(remote.Msg, "no such method") {
		t.Fatalf("msg = %q", remote.Msg)
	}
}

func TestTimeoutOnPartition(t *testing.T) {
	f := newFixture(t)
	f.b.MustRegister("echo", func(r Request) ([]byte, error) { return r.Body, nil })
	f.net.Partition([]netsim.Address{"a"}, []netsim.Address{"b"})
	var got Result
	f.a.Go("b", "echo", nil, func(r Result) { got = r }, CallTimeout(time.Second))
	f.clk.Advance(999 * time.Millisecond)
	if got.Err != nil || got.Body != nil {
		if got.Err != nil {
			t.Fatalf("completed before timeout: %v", got.Err)
		}
	}
	f.clk.Advance(time.Millisecond)
	if !errors.Is(got.Err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", got.Err)
	}
	if st := f.a.Stats(); st.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", st.Timeouts)
	}
}

func TestRetrySucceedsAfterHeal(t *testing.T) {
	f := newFixture(t)
	f.b.MustRegister("echo", func(r Request) ([]byte, error) { return r.Body, nil })
	f.net.Partition([]netsim.Address{"a"}, []netsim.Address{"b"})
	var got Result
	done := false
	f.a.Go("b", "echo", []byte("x"), func(r Result) { got = kept(r); done = true },
		CallTimeout(time.Second), CallBackoff(0, 0))
	f.clk.Advance(1500 * time.Millisecond) // first attempt timed out, retry in flight
	f.net.Heal()
	f.clk.RunUntilIdle()
	if !done {
		t.Fatal("call never completed")
	}
	if got.Err != nil {
		t.Fatalf("err = %v after heal+retry, want nil", got.Err)
	}
	if string(got.Body) != "x" {
		t.Fatalf("body = %q", got.Body)
	}
}

func TestRetriesExhausted(t *testing.T) {
	f := newFixture(t)
	f.net.Partition([]netsim.Address{"a"}, []netsim.Address{"b"})
	var got Result
	f.a.Go("b", "echo", nil, func(r Result) { got = r }, CallTimeout(time.Second), CallBackoff(0, 0))
	f.clk.RunUntilIdle()
	if !errors.Is(got.Err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", got.Err)
	}
	if st := f.a.Stats(); st.Timeouts != 3 {
		t.Fatalf("Timeouts = %d, want 3 (initial + 2 retries)", st.Timeouts)
	}
}

func TestAnnounceIsOneWay(t *testing.T) {
	f := newFixture(t)
	var seen []string
	f.b.MustRegister("notify", func(r Request) ([]byte, error) {
		seen = append(seen, string(r.Body))
		return []byte("ignored"), nil
	})
	if err := f.a.Announce("b", "notify", []byte("n1")); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	if len(seen) != 1 || seen[0] != "n1" {
		t.Fatalf("seen = %v", seen)
	}
	if st := f.a.Stats(); st.Announcements != 1 {
		t.Fatalf("Announcements = %d", st.Announcements)
	}
	// No pending call should remain (announcements expect no reply).
	if st := f.a.Stats(); st.Timeouts != 0 {
		t.Fatalf("Timeouts = %d after announce", st.Timeouts)
	}
}

func TestDuplicateRegister(t *testing.T) {
	f := newFixture(t)
	f.a.MustRegister("m", func(r Request) ([]byte, error) { return nil, nil })
	if err := f.a.Register("m", func(r Request) ([]byte, error) { return nil, nil }); !errors.Is(err, ErrEndpointReuse) {
		t.Fatalf("err = %v, want ErrEndpointReuse", err)
	}
}

func TestCloseFailsPending(t *testing.T) {
	f := newFixture(t)
	f.net.Partition([]netsim.Address{"a"}, []netsim.Address{"b"})
	var got Result
	f.a.Go("b", "x", nil, func(r Result) { got = r }, CallTimeout(time.Hour))
	f.a.Close()
	if !errors.Is(got.Err, ErrTimeout) {
		t.Fatalf("err = %v after Close, want ErrTimeout", got.Err)
	}
	// Idempotent.
	f.a.Close()
}

// TestMsgHelpers: a typed call and a typed handler carry binary messages both
// ways, a reply with nothing to say is wire.Empty's empty body, and a typed
// handler decodes every request body — an empty one is no note.
func TestMsgHelpers(t *testing.T) {
	f := newFixture(t)
	f.b.MustRegister("next", Handle(func(_ netsim.Address, n note) (note, error) {
		return note{Seq: n.Seq + 1, Text: n.Text}, nil
	}))
	f.b.MustRegister("drop", Handle(func(netsim.Address, note) (wire.Empty, error) { return wire.Empty{}, nil }))
	var next, dropped, bare Result
	f.a.GoMsg("b", "next", note{Seq: 2, Text: "x"}, func(r Result) { next = kept(r) })
	f.a.GoMsg("b", "drop", note{Seq: 2}, func(r Result) { dropped = kept(r) })
	f.a.Go("b", "next", nil, func(r Result) { bare = r })
	f.clk.RunUntilIdle()
	var back note
	if err := next.Decode(&back); err != nil || back != (note{Seq: 3, Text: "x"}) {
		t.Fatalf("next = %+v, %v", back, err)
	}
	if err := dropped.Decode(&wire.Empty{}); err != nil || len(dropped.Body) != 0 {
		t.Fatalf("an empty reply came back as %q, %v", dropped.Body, err)
	}
	var remote *RemoteError
	if !errors.As(bare.Err, &remote) {
		t.Fatalf("an empty request body was served as a note: %v", bare.Err)
	}
}

func TestConcurrentCallsDistinctCorrelation(t *testing.T) {
	f := newFixture(t)
	f.b.MustRegister("id", func(r Request) ([]byte, error) { return r.Body, nil })
	const n = 50
	results := make([]Result, n)
	for i := 0; i < n; i++ {
		i := i
		f.a.Go("b", "id", []byte{byte(i)}, func(r Result) { results[i] = kept(r) })
	}
	f.clk.RunUntilIdle()
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("call %d: %v", i, r.Err)
		}
		if len(r.Body) != 1 || r.Body[0] != byte(i) {
			t.Fatalf("call %d got body %v: replies crossed", i, r.Body)
		}
	}
}

func TestLateReplyAfterTimeoutIgnored(t *testing.T) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk))
	// Slow link: reply arrives after the timeout.
	net.SetLink("a", "b", netsim.LinkProfile{Latency: 800 * time.Millisecond})
	a := NewEndpoint(net.MustAddNode("a"), clk)
	b := NewEndpoint(net.MustAddNode("b"), clk)
	b.MustRegister("echo", func(r Request) ([]byte, error) { return r.Body, nil })

	completions := 0
	a.Go("b", "echo", nil, func(r Result) { completions++ }, CallTimeout(time.Second))
	clk.RunUntilIdle()
	if completions != 1 {
		t.Fatalf("completions = %d, want exactly 1", completions)
	}
}

// TestTimeoutArmedAfterRequestLeaves: a blocking caller under a simulated
// clock runs beside the goroutine that advances it (Deployment.Do), and
// that goroutine jumps to whatever deadline is pending. The interceptor
// plays it at the worst instant — while the request is still on its way
// out of the caller's stack: no event of this call may be pending yet, or
// the jump would expire a call that was never sent.
func TestTimeoutArmedAfterRequestLeaves(t *testing.T) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(3))
	jumped := false
	a := NewEndpoint(net.MustAddNode("a"), clk, WithChannel(channel.WithInterceptor(func(f *channel.Frame) error {
		if f.Dir == channel.Outbound {
			if deadline, ok := clk.NextDeadline(); ok {
				jumped = true
				clk.AdvanceTo(deadline)
			}
		}
		return nil
	})))
	b := NewEndpoint(net.MustAddNode("b"), clk)
	b.MustRegister("echo", func(r Request) ([]byte, error) { return r.Body, nil })

	var got Result
	a.Go("b", "echo", []byte("hi"), func(r Result) { got = kept(r) }, CallTimeout(time.Second))
	clk.RunUntilIdle()
	if jumped {
		t.Error("an event of the call was pending before its request left")
	}
	if got.Err != nil || string(got.Body) != "hi" {
		t.Fatalf("result = %q, %v; want the echo", got.Body, got.Err)
	}
	if st := a.Stats(); st.Timeouts != 0 {
		t.Fatalf("timeouts = %d, want 0", st.Timeouts)
	}
	// The deadline still counts from the call, not from the arming: a call
	// nobody answers expires one timeout after it was made.
	net.Partition([]netsim.Address{"a"}, []netsim.Address{"b"})
	start := clk.Now()
	var at time.Time
	a.Go("b", "echo", nil, func(r Result) {
		if !errors.Is(r.Err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", r.Err)
		}
		at = clk.Now()
	}, CallTimeout(time.Second))
	clk.RunUntilIdle()
	if want := start.Add(time.Second); !at.Equal(want) {
		t.Fatalf("expired at %v, want %v", at, want)
	}
}
