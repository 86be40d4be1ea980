package rpc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mocca/internal/channel"
	"mocca/internal/netsim"
	"mocca/internal/vclock"
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

func TestRequestReply(t *testing.T) {
	f := newFixture(t)
	f.b.MustRegister("echo", func(r Request) ([]byte, error) {
		return append([]byte("echo:"), r.Body...), nil
	})
	var got Result
	f.a.Go("b", "echo", []byte("hi"), func(r Result) { got = r })
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
	f.a.Go("b", "echo", []byte("x"), func(r Result) { got = r; done = true },
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

func TestInterceptorOrderAndVeto(t *testing.T) {
	var trace []string
	logging := func(name string) Interceptor {
		return func(next Handler) Handler {
			return func(r Request) ([]byte, error) {
				trace = append(trace, name+":in")
				out, err := next(r)
				trace = append(trace, name+":out")
				return out, err
			}
		}
	}
	veto := func(next Handler) Handler {
		return func(r Request) ([]byte, error) {
			if r.Method == "secret" {
				return nil, errors.New("access denied")
			}
			return next(r)
		}
	}

	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk))
	a := NewEndpoint(net.MustAddNode("a"), clk)
	b := NewEndpoint(net.MustAddNode("b"), clk,
		WithInterceptor(logging("outer")), WithInterceptor(veto), WithInterceptor(logging("inner")))
	b.MustRegister("open", func(r Request) ([]byte, error) { return []byte("ok"), nil })
	b.MustRegister("secret", func(r Request) ([]byte, error) { return []byte("leak"), nil })

	var got Result
	a.Go("b", "open", nil, func(r Result) { got = r })
	clk.RunUntilIdle()
	if got.Err != nil || string(got.Body) != "ok" {
		t.Fatalf("open: %v %q", got.Err, got.Body)
	}
	wantTrace := []string{"outer:in", "inner:in", "inner:out", "outer:out"}
	if fmt.Sprint(trace) != fmt.Sprint(wantTrace) {
		t.Fatalf("trace = %v, want %v", trace, wantTrace)
	}

	a.Go("b", "secret", nil, func(r Result) { got = r })
	clk.RunUntilIdle()
	var remote *RemoteError
	if !errors.As(got.Err, &remote) || remote.Msg != "access denied" {
		t.Fatalf("secret: err = %v, want access denied", got.Err)
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

func TestJSONHelpers(t *testing.T) {
	type sumReq struct{ A, B int }
	type sumResp struct{ Total int }
	f := newFixture(t)
	f.b.MustRegister("sum", HandleJSON(func(from netsim.Address, req sumReq) (sumResp, error) {
		return sumResp{Total: req.A + req.B}, nil
	}))
	var got Result
	f.a.GoJSON("b", "sum", sumReq{A: 2, B: 3}, func(r Result) { got = r })
	f.clk.RunUntilIdle()
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if !strings.Contains(string(got.Body), "5") {
		t.Fatalf("body = %s", got.Body)
	}
}

func TestConcurrentCallsDistinctCorrelation(t *testing.T) {
	f := newFixture(t)
	f.b.MustRegister("id", func(r Request) ([]byte, error) { return r.Body, nil })
	const n = 50
	results := make([]Result, n)
	for i := 0; i < n; i++ {
		i := i
		f.a.Go("b", "id", []byte{byte(i)}, func(r Result) { results[i] = r })
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
	a.Go("b", "echo", []byte("hi"), func(r Result) { got = r }, CallTimeout(time.Second))
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
