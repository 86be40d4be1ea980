package rpc

import (
	"errors"
	"testing"
	"time"

	"mocca/internal/netsim"
	"mocca/internal/observe"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// TestCallTracePropagatesAndParents: a traced call produces a client
// span at the caller, a serve span at the callee parented under it, and
// the handler sees the live context in Request.Trace.
func TestCallTracePropagatesAndParents(t *testing.T) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(3))
	tel := observe.New(9, clk.Now)
	a := NewEndpoint(net.MustAddNode("a"), clk, WithTelemetry(tel))
	b := NewEndpoint(net.MustAddNode("b"), clk, WithTelemetry(tel))

	var handlerCtx wire.TraceContext
	b.MustRegister("echo", func(r Request) ([]byte, error) {
		handlerCtx = r.Trace
		return r.Body, nil
	})

	root := tel.Tracer.StartRoot("op", "a")
	rootCtx := root.Context()
	var got Result
	a.Go("b", "echo", []byte("hi"), func(r Result) { got = r }, CallTrace(rootCtx))
	clk.RunUntilIdle()
	root.End()
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if handlerCtx.IsZero() || handlerCtx.TraceID != rootCtx.TraceID {
		t.Fatalf("handler context = %+v, want trace %x", handlerCtx, rootCtx.TraceID)
	}

	var call, serve *observe.Span
	for _, sp := range tel.Tracer.Spans() {
		sp := sp
		switch sp.Name {
		case "rpc.call:echo":
			call = &sp
		case "rpc.serve:echo":
			serve = &sp
		}
	}
	if call == nil || serve == nil {
		t.Fatalf("missing spans: call=%v serve=%v", call, serve)
	}
	if call.Parent != rootCtx.SpanID {
		t.Fatalf("call span parent = %x, want root %x", call.Parent, rootCtx.SpanID)
	}
	if serve.Parent != call.SpanID {
		t.Fatalf("serve span parent = %x, want call %x", serve.Parent, call.SpanID)
	}
	if serve.Site != "b" || call.Site != "a" {
		t.Fatalf("span sites: call=%s serve=%s", call.Site, serve.Site)
	}
	// The serve span context is what the handler saw.
	if handlerCtx.SpanID != serve.SpanID {
		t.Fatalf("handler saw %x, serve span is %x", handlerCtx.SpanID, serve.SpanID)
	}
}

// TestRetriesBecomeChildSpans: with a partitioned peer, every retry
// attempt records its own client span (status timeout), all siblings
// under the caller's context.
func TestRetriesBecomeChildSpans(t *testing.T) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(3))
	tel := observe.New(9, clk.Now)
	a := NewEndpoint(net.MustAddNode("a"), clk, WithTelemetry(tel))
	NewEndpoint(net.MustAddNode("b"), clk, WithTelemetry(tel))
	net.Partition([]netsim.Address{"a"}, []netsim.Address{"b"})

	root := tel.Tracer.StartRoot("op", "a")
	rootCtx := root.Context()
	var got Result
	a.Go("b", "ping", nil, func(r Result) { got = r },
		CallTrace(rootCtx), CallTimeout(100*time.Millisecond), CallBackoff(0, 0))
	clk.RunUntilIdle()
	root.End()
	if !errors.Is(got.Err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", got.Err)
	}

	var attempts []observe.Span
	for _, sp := range tel.Tracer.Spans() {
		if sp.Name == "rpc.call:ping" {
			attempts = append(attempts, sp)
		}
	}
	if len(attempts) != 3 {
		t.Fatalf("got %d attempt spans, want 3 (1 + 2 retries)", len(attempts))
	}
	for i, sp := range attempts {
		if sp.Parent != rootCtx.SpanID {
			t.Fatalf("attempt %d parent = %x, want root", i, sp.Parent)
		}
		if sp.Status != "timeout" {
			t.Fatalf("attempt %d status = %q, want timeout", i, sp.Status)
		}
	}
}

// TestTracedPeerInteropsWithUntraced is the mixed-deployment
// compatibility check: a peer without telemetry serves traced requests,
// and its traced counterpart handles the untraced peer's envelopes, which
// carry no trace block — both directions complete normally.
func TestTracedPeerInteropsWithUntraced(t *testing.T) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(3))
	tel := observe.New(9, clk.Now)
	traced := NewEndpoint(net.MustAddNode("a"), clk, WithTelemetry(tel))
	plain := NewEndpoint(net.MustAddNode("b"), clk) // no telemetry at all

	var plainSawCtx wire.TraceContext
	plain.MustRegister("echo", func(r Request) ([]byte, error) {
		plainSawCtx = r.Trace // envelope context passes through untouched
		return r.Body, nil
	})
	traced.MustRegister("echo", func(r Request) ([]byte, error) { return r.Body, nil })

	// Traced → untraced: the traced envelope decodes at the plain
	// peer, the handler runs, and the reply resolves the call.
	root := tel.Tracer.StartRoot("op", "a")
	rootCtx := root.Context()
	var got Result
	traced.Go("b", "echo", []byte("x"), func(r Result) { got = kept(r) }, CallTrace(rootCtx))
	clk.RunUntilIdle()
	root.End()
	if got.Err != nil || string(got.Body) != "x" {
		t.Fatalf("traced→plain call failed: %+v", got)
	}
	if plainSawCtx.IsZero() || plainSawCtx.TraceID != rootCtx.TraceID {
		t.Fatalf("plain peer lost the envelope context: %+v", plainSawCtx)
	}

	// Untraced → traced: untraced envelopes from the plain peer decode
	// at the traced endpoint with a zero context and serve normally,
	// recording no spans.
	before := tel.Tracer.Counts().Spans
	var got2 Result
	plain.Go("a", "echo", []byte("y"), func(r Result) { got2 = kept(r) })
	clk.RunUntilIdle()
	if got2.Err != nil || string(got2.Body) != "y" {
		t.Fatalf("plain→traced call failed: %+v", got2)
	}
	if after := tel.Tracer.Counts().Spans; after != before {
		t.Fatalf("untraced request recorded %d spans", after-before)
	}
}

// TestAnnounceTraced: announcements carry the context and record an
// instantaneous span.
func TestAnnounceTraced(t *testing.T) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(3))
	tel := observe.New(9, clk.Now)
	a := NewEndpoint(net.MustAddNode("a"), clk, WithTelemetry(tel))
	b := NewEndpoint(net.MustAddNode("b"), clk, WithTelemetry(tel))

	var seen wire.TraceContext
	b.MustRegister("note", func(r Request) ([]byte, error) {
		seen = r.Trace
		return nil, nil
	})
	root := tel.Tracer.StartRoot("op", "a")
	rootCtx := root.Context()
	if err := a.Announce("b", "note", nil, CallTrace(rootCtx)); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()
	root.End()
	if seen.IsZero() || seen.TraceID != rootCtx.TraceID {
		t.Fatalf("announcement lost trace: %+v", seen)
	}
	var annSpan bool
	for _, sp := range tel.Tracer.Spans() {
		if sp.Name == "rpc.ann:note" && sp.Parent == rootCtx.SpanID {
			annSpan = true
		}
	}
	if !annSpan {
		t.Fatalf("no announcement span recorded")
	}
}
