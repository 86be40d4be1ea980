package rpc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mocca/internal/channel"
	"mocca/internal/netsim"
	"mocca/internal/wire"
)

func TestCallBackoffSpacing(t *testing.T) {
	f := newFixture(t)
	f.b.MustRegister("echo", func(r Request) ([]byte, error) { return r.Body, nil })
	f.net.Partition([]netsim.Address{"a"}, []netsim.Address{"b"})

	var retries []int
	var got Result
	done := false
	f.a.Go("b", "echo", []byte("x"), func(r Result) { got = r; done = true },
		CallTimeout(time.Second),
		CallBackoff(2*time.Second, 10*time.Second),
		CallOnRetry(func(n int) { retries = append(retries, n) }))

	// t=1s: first timeout; retry waits until t=3s.
	f.clk.Advance(2500 * time.Millisecond)
	if len(retries) != 1 {
		t.Fatalf("retries after 2.5s = %v, want 1", retries)
	}
	if done {
		t.Fatal("completed while first backoff pending")
	}
	// Heal before the second retry (t=3s attempt times out at t=4s, next
	// retry at t=14s) so the final attempt succeeds.
	f.clk.Advance(2 * time.Second) // t=4.5s: second timeout recorded
	f.net.Heal()
	f.clk.RunUntilIdle()
	if !done || got.Err != nil {
		t.Fatalf("call after heal: done=%v err=%v", done, got.Err)
	}
	if len(retries) != 2 || retries[0] != 1 || retries[1] != 2 {
		t.Fatalf("retries = %v", retries)
	}
}

func TestCallBackoffExhausted(t *testing.T) {
	f := newFixture(t)
	f.net.Partition([]netsim.Address{"a"}, []netsim.Address{"b"})
	var got Result
	f.a.Go("b", "echo", nil, func(r Result) { got = r },
		CallTimeout(time.Second), CallBackoff(time.Second))
	f.clk.RunUntilIdle()
	if !errors.Is(got.Err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", got.Err)
	}
	if st := f.a.Stats(); st.Timeouts != 2 {
		t.Fatalf("Timeouts = %d, want 2 (initial + 1 backoff retry)", st.Timeouts)
	}
}

// TestSendFailureConsumesRetryBudget: a local transmission error (source
// node down when the attempt fires) must burn a retry instead of failing
// the call outright, so the call survives the node recovering mid-schedule.
func TestSendFailureConsumesRetryBudget(t *testing.T) {
	f := newFixture(t)
	f.b.MustRegister("echo", func(r Request) ([]byte, error) { return r.Body, nil })
	nodeA, _ := f.net.Node("a")
	nodeA.SetDown(true)

	var got Result
	done := false
	f.a.Go("b", "echo", []byte("x"), func(r Result) { got = r; done = true },
		CallTimeout(time.Second), CallBackoff(2*time.Second, 2*time.Second))

	// First attempt fails locally (node down) and schedules a retry at
	// t=2s; recover before it fires.
	f.clk.Advance(time.Second)
	if done {
		t.Fatalf("call failed without consuming retry budget: %v", got.Err)
	}
	nodeA.SetDown(false)
	f.clk.RunUntilIdle()
	if !done || got.Err != nil {
		t.Fatalf("call after recovery: done=%v err=%v", done, got.Err)
	}
	if string(got.Body) != "x" {
		t.Fatalf("body = %q", got.Body)
	}
}

func TestResultDecode(t *testing.T) {
	b, _ := note{Seq: 7}.AppendBinary(nil)
	var out note
	if err := (Result{Body: b}).Decode(&out); err != nil || out.Seq != 7 {
		t.Fatalf("decode = %+v, %v", out, err)
	}
	if err := (Result{Err: ErrTimeout}).Decode(&out); !errors.Is(err, ErrTimeout) {
		t.Fatalf("call error not propagated: %v", err)
	}
	// An empty body is the message's decoder to judge: no note, but wire.Empty.
	if err := (Result{}).Decode(&out); err == nil {
		t.Fatal("an empty body decoded as a note")
	}
	if err := (Result{}).Decode(&wire.Empty{}); err != nil {
		t.Fatalf("an empty body refused as wire.Empty: %v", err)
	}
	if err := (Result{Body: b}).Decode(&wire.Empty{}); err == nil {
		t.Fatal("a note's body decoded as wire.Empty")
	}
}

// TestAllTrafficTraversesChannel registers a counting interceptor on both
// endpoints' channel stacks and checks that every wire message of a full
// interrogation (request + reply) and an announcement is observed — the
// acceptance criterion that interceptors see 100% of traffic.
func TestAllTrafficTraversesChannel(t *testing.T) {
	outbound, inbound := 0, 0
	count := channel.WithInterceptor(func(fr *channel.Frame) error {
		switch fr.Dir {
		case channel.Outbound:
			outbound++
		case channel.Inbound:
			inbound++
		}
		return nil
	})
	f := newFixture(t, WithChannel(count))
	f.b.MustRegister("echo", func(r Request) ([]byte, error) { return r.Body, nil })

	var got Result
	f.a.Go("b", "echo", []byte("x"), func(r Result) { got = r })
	f.clk.RunUntilIdle()
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if err := f.a.Announce("b", "notify", nil); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()

	// request + reply + announce = 3 wire messages, each seen once
	// outbound (sender stack) and once inbound (receiver stack).
	if outbound != 3 || inbound != 3 {
		t.Fatalf("interceptor saw %d outbound / %d inbound, want 3/3", outbound, inbound)
	}
	ns := f.net.Stats()
	if ns.Sent != 3 || ns.Delivered != 3 {
		t.Fatalf("network stats = %+v", ns)
	}
}

// A deterministic local send failure — here a method name violating the
// wire size limit — must short-circuit the retry/backoff schedule: the
// same envelope fails identically on every attempt, so a call that can
// never succeed must not burn simulated hours walking the schedule.
func TestPermanentSendErrorShortCircuitsBackoff(t *testing.T) {
	f := newFixture(t)
	oversize := strings.Repeat("m", 1<<16) // method header exceeds maxStringLen

	var retries []int
	var got Result
	done := false
	f.a.Go("b", oversize, nil, func(r Result) { got = r; done = true },
		CallTimeout(time.Second),
		CallBackoff(2*time.Second, 10*time.Second, 60*time.Second),
		CallOnRetry(func(n int) { retries = append(retries, n) }))

	// The failure is synchronous: no timeout, no backoff timer, no retry.
	if !done {
		t.Fatal("oversize call did not complete immediately")
	}
	if !errors.Is(got.Err, wire.ErrOversize) {
		t.Fatalf("err = %v, want wire.ErrOversize", got.Err)
	}
	if len(retries) != 0 {
		t.Fatalf("retried %v times; permanent errors must not retry", retries)
	}
	if pending := f.clk.Pending(); pending != 0 {
		t.Fatalf("%d timers left armed by a dead-on-arrival call", pending)
	}
	if st := f.a.Stats(); st.Timeouts != 0 {
		t.Fatalf("Timeouts = %d, want 0", st.Timeouts)
	}

	// Transient failures keep the old behaviour: the full schedule runs.
	f.net.Partition([]netsim.Address{"a"}, []netsim.Address{"b"})
	retries, done = nil, false
	f.a.Go("b", "echo", nil, func(r Result) { done = true },
		CallTimeout(time.Second), CallBackoff(time.Second, time.Second),
		CallOnRetry(func(n int) { retries = append(retries, n) }))
	f.clk.RunUntilIdle()
	if !done || len(retries) != 2 {
		t.Fatalf("transient failure: done=%v retries=%v, want full schedule", done, retries)
	}
}
