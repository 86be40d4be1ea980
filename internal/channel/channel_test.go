package channel

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"mocca/internal/netsim"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

func newPair(t *testing.T, aOpts, bOpts []Option) (*vclock.Simulated, *netsim.Network, *Stack, *Stack) {
	t.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(1))
	a := New(net.MustAddNode("a"), aOpts...)
	b := New(net.MustAddNode("b"), bOpts...)
	return clk, net, a, b
}

func TestSendReceiveRoundTrip(t *testing.T) {
	clk, net, a, b := newPair(t, nil, nil)
	var got *wire.Envelope
	var from netsim.Address
	b.Handle(func(f netsim.Address, env *wire.Envelope) {
		cp := *env // lent for the upcall only, with the frame its body aliases
		cp.Body = bytes.Clone(env.Body)
		from, got = f, &cp
	})

	env := wire.NewEnvelope("test.kind", "c1", []byte("payload"))
	env.SetHeader("method", "m")
	if err := a.Send("b", env); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()

	if got == nil {
		t.Fatal("no envelope received")
	}
	if from != "a" || got.Kind != "test.kind" || got.Corr != "c1" || string(got.Body) != "payload" {
		t.Fatalf("received %v from %q", got, from)
	}
	if m, _ := got.Header("method"); m != "m" {
		t.Fatalf("method header = %q", m)
	}

	// Per-channel stats reconcile with the network's own accounting.
	as, bs := a.Stats("b"), b.Stats("a")
	if as.FramesOut != 1 || bs.FramesIn != 1 {
		t.Fatalf("frames: out=%d in=%d", as.FramesOut, bs.FramesIn)
	}
	ns := net.Stats()
	if as.BytesOut != ns.Bytes || bs.BytesIn != ns.Bytes {
		t.Fatalf("bytes: out=%d in=%d net=%d", as.BytesOut, bs.BytesIn, ns.Bytes)
	}
}

// TestReceiverEnvelopeIsLent: the envelope a receiver is handed is the
// stack's for reuse once the upcall returns — a receiver that keeps the
// pointer reads a zero envelope afterwards — while the strings it kept and
// the body it copied out stay as they arrived.
func TestReceiverEnvelopeIsLent(t *testing.T) {
	clk, _, a, b := newPair(t, nil, nil)
	var kept *wire.Envelope
	var kind, method string
	var body []byte
	b.Handle(func(_ netsim.Address, env *wire.Envelope) {
		kept = env
		kind, body = env.Kind, bytes.Clone(env.Body)
		method, _ = env.Header("method")
	})

	env := wire.NewEnvelope("test.kind", "c1", []byte("payload"))
	env.SetHeader("method", "m")
	env.Trace = wire.TraceContext{TraceID: 7, SpanID: 8}
	if err := a.Send("b", env); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()

	if kept == nil {
		t.Fatal("no envelope received")
	}
	if !reflect.DeepEqual(*kept, wire.Envelope{}) {
		t.Fatalf("a kept envelope reads %+v after the upcall, want the zero envelope", *kept)
	}
	if kind != "test.kind" || method != "m" || string(body) != "payload" {
		t.Fatalf("copied out kind %q, method %q, body %q", kind, method, body)
	}
}

// TestKeptBodyIsPoisoned: a frame's buffer goes back to the free list once
// its receiver returns, so a receiver that keeps the body it was lent reads
// something else afterwards. Under the race detector the buffer is poisoned
// as it is released, 0xA5 in every byte, so such a receiver fails its own
// tests; without it, the next frame sent reuses the buffer.
func TestKeptBodyIsPoisoned(t *testing.T) {
	clk, _, a, b := newPair(t, nil, nil)
	var kept []byte
	b.Handle(func(_ netsim.Address, env *wire.Envelope) {
		if kept == nil {
			kept = env.Body // kept past the upcall, against the Receiver rule
		}
	})
	send := func(body string) {
		t.Helper()
		if err := a.Send("b", wire.NewEnvelope("k", "c1", []byte(body))); err != nil {
			t.Fatal(err)
		}
		clk.RunUntilIdle()
	}
	send("first")
	if poisonFrames {
		if want := bytes.Repeat([]byte{0xA5}, len("first")); !bytes.Equal(kept, want) {
			t.Fatalf("a kept body reads %q after its upcall, want %x", kept, want)
		}
		return
	}
	send("other")
	if string(kept) != "other" {
		t.Fatalf("a kept body reads %q after the next frame, want that frame's %q", kept, "other")
	}
}

// TestFramePoolClasses: the free list hands a frame a buffer from the
// smallest class that holds it — a large frame leaves a small buffer where
// it is, and a small frame takes the small buffer, not a large one — and
// keeps no buffer past maxPooledFrame.
func TestFramePoolClasses(t *testing.T) {
	var p framePool
	small, large := make([]byte, 0, 300), make([]byte, 0, 40<<10)
	p.put(small) // filed as 256
	p.put(large) // filed as 32 KiB
	if b := p.get(1000); cap(b) < 1000 || cap(b) == cap(small) || cap(b) == cap(large) {
		t.Fatalf("a 1000-byte frame got a buffer of %d bytes, want a new 1 KiB one", cap(b))
	}
	if b := p.get(200); cap(b) != cap(small) {
		t.Fatalf("a 200-byte frame got a buffer of %d bytes, want the 300-byte one", cap(b))
	}
	if b := p.get(20 << 10); cap(b) != cap(large) {
		t.Fatalf("a 20 KiB frame got a buffer of %d bytes, want the 40 KiB one", cap(b))
	}
	if p.held != 0 {
		t.Fatalf("the emptied free list holds %d bytes", p.held)
	}
	if b := p.get(maxPooledFrame + 1); b != nil {
		t.Fatalf("a frame past the largest class got a %d-byte buffer, want none", cap(b))
	}
	p.put(make([]byte, 0, maxPooledFrame+1))
	if p.held != 0 {
		t.Fatalf("a buffer past maxPooledFrame was kept: %d bytes held", p.held)
	}
}

// raceEnabled is set by race_test.go when the tests run under -race.
var raceEnabled bool

// TestSendDeliverAllocations prices one frame through two stacks, as the
// benchmark ledger's channel.send_deliver row does — a caller-built envelope,
// no interceptor: the envelope the caller builds and the decoded literal
// text. The frame's bytes come from the free list the receiving stack gives
// them back to, the receiving envelope is lent from a pool, the network's
// in-flight record is pooled and the clock recycles the delivery event.
func TestSendDeliverAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what is put back, so pooled paths allocate")
	}
	clk, _, a, b := newPair(t, nil, nil)
	got := 0
	b.Handle(func(netsim.Address, *wire.Envelope) { got++ })
	body := make([]byte, 512)
	n := testing.AllocsPerRun(500, func() {
		if err := a.Send("b", wire.NewEnvelope("bench", "c1", body)); err != nil {
			t.Fatal(err)
		}
		clk.RunUntilIdle()
	})
	if n > 2 {
		t.Errorf("send → deliver allocates %v times, want at most 2", n)
	}
	if got != 501 {
		t.Fatalf("%d frames delivered, want 501", got)
	}
}

func TestInterceptorOrderAndDrop(t *testing.T) {
	var order []string
	first := func(f *Frame) error { order = append(order, "first:"+f.Dir.String()); return nil }
	second := func(f *Frame) error { order = append(order, "second:"+f.Dir.String()); return nil }

	clk, _, a, b := newPair(t,
		[]Option{WithInterceptor(first), WithInterceptor(second)},
		nil)
	delivered := 0
	b.Handle(func(netsim.Address, *wire.Envelope) { delivered++ })

	if err := a.Send("b", wire.NewEnvelope("k", "", nil)); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()
	if len(order) != 2 || order[0] != "first:outbound" || order[1] != "second:outbound" {
		t.Fatalf("order = %v", order)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
}

func TestDropFrameIsSilent(t *testing.T) {
	clk, net, a, b := newPair(t,
		[]Option{DropIfOption(func(f *Frame) bool { return f.Env.Kind == "drop.me" })},
		nil)
	delivered := 0
	b.Handle(func(netsim.Address, *wire.Envelope) { delivered++ })

	if err := a.Send("b", wire.NewEnvelope("drop.me", "", nil)); err != nil {
		t.Fatalf("dropped frame surfaced error: %v", err)
	}
	if err := a.Send("b", wire.NewEnvelope("keep.me", "", nil)); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()

	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if st := a.Stats("b"); st.DroppedOut != 1 || st.FramesOut != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if net.Stats().Sent != 1 {
		t.Fatalf("dropped frame reached the network: %+v", net.Stats())
	}
}

// DropIfOption adapts DropIf for option lists in tests.
func DropIfOption(pred func(*Frame) bool) Option {
	return WithInterceptor(DropIf(pred))
}

func TestInboundInterceptorError(t *testing.T) {
	clk, _, a, b := newPair(t, nil,
		[]Option{WithInterceptor(func(f *Frame) error {
			if f.Dir == Inbound {
				return errors.New("rejected")
			}
			return nil
		})})
	delivered := 0
	b.Handle(func(netsim.Address, *wire.Envelope) { delivered++ })

	if err := a.Send("b", wire.NewEnvelope("k", "", nil)); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()
	if delivered != 0 {
		t.Fatal("rejected frame delivered")
	}
	if st := b.Stats("a"); st.DroppedIn != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBinderRebindAdoptedByPeer(t *testing.T) {
	clk, _, a, b := newPair(t, nil, nil)
	b.Handle(func(netsim.Address, *wire.Envelope) {})

	if err := a.Send("b", wire.NewEnvelope("k", "", nil)); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()
	if e := b.Epoch("a"); e != 1 {
		t.Fatalf("epoch before rebind = %d", e)
	}

	// The server migrated/failed over: the client re-establishes.
	if e := a.Rebind("b"); e != 2 {
		t.Fatalf("Rebind = %d", e)
	}
	if err := a.Send("b", wire.NewEnvelope("k", "", nil)); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()

	if e := b.Epoch("a"); e != 2 {
		t.Fatalf("peer epoch = %d, want 2", e)
	}
	if st := b.Stats("a"); st.Rebinds != 1 || st.FramesIn != 2 {
		t.Fatalf("peer stats = %+v", st)
	}
}

func TestBinderStaleEpoch(t *testing.T) {
	b := binding{epoch: 1}
	if stale := b.observe(3); stale || b.epoch != 3 || b.Rebinds != 1 {
		t.Fatalf("observe(3) = stale %v, record %+v", stale, b)
	}
	if stale := b.observe(2); !stale || b.epoch != 3 {
		t.Fatalf("observe(2) after 3 = stale %v, record %+v", stale, b)
	}
	if stale := b.observe(3); stale || b.Rebinds != 1 {
		t.Fatalf("observe(3) steady state = stale %v, record %+v", stale, b)
	}
}

// adoptEpoch leaves s's binding toward remote as a frame at that epoch
// would: the peer rebound, and anything older is now stale.
func adoptEpoch(s *Stack, remote netsim.Address, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bindingLocked(remote).observe(epoch)
}

func TestStaleFrameDiscarded(t *testing.T) {
	clk, _, a, b := newPair(t, nil, nil)
	delivered := 0
	b.Handle(func(netsim.Address, *wire.Envelope) { delivered++ })

	// Peer's binder has already adopted epoch 5 for "a".
	adoptEpoch(b, "a", 5)

	// A frame from the old epoch-1 binding must be discarded as stale.
	if err := a.Send("b", wire.NewEnvelope("k", "", nil)); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()
	if delivered != 0 {
		t.Fatal("stale frame delivered")
	}
	if st := b.Stats("a"); st.StaleIn != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailureInjectorDeterministic(t *testing.T) {
	run := func() int {
		clk, _, a, b := newPair(t, []Option{WithInterceptor(FailureInjector(42, 0.5))}, nil)
		delivered := 0
		b.Handle(func(netsim.Address, *wire.Envelope) { delivered++ })
		for i := 0; i < 100; i++ {
			if err := a.Send("b", wire.NewEnvelope("k", "", nil)); err != nil {
				t.Fatal(err)
			}
		}
		clk.RunUntilIdle()
		return delivered
	}
	first := run()
	if first == 0 || first == 100 {
		t.Fatalf("injector at rate 0.5 delivered %d/100", first)
	}
	if again := run(); again != first {
		t.Fatalf("injection not deterministic: %d then %d", first, again)
	}
}

// TestObserverNotified: a fabric holding both ends reads every bind, send
// and receive off the stacks' binding records.
func TestObserverNotified(t *testing.T) {
	fab := NewFabric()
	clk, net, a, b := newPair(t, []Option{WithFabric(fab)}, []Option{WithFabric(fab)})
	b.Handle(func(netsim.Address, *wire.Envelope) {})

	for i := 0; i < 3; i++ {
		if err := a.Send("b", wire.NewEnvelope("k", "", nil)); err != nil {
			t.Fatal(err)
		}
	}
	clk.RunUntilIdle()

	ns := net.Stats()
	want := []ChannelInfo{
		{Local: "a", Remote: "b", Epoch: 1, FramesOut: 3, BytesOut: ns.Bytes},
		{Local: "b", Remote: "a", Epoch: 1, FramesIn: 3, BytesIn: ns.Bytes},
	}
	if got := fab.Channels(); !reflect.DeepEqual(got, want) {
		t.Fatalf("channels = %+v, want %+v", got, want)
	}
}

// TestObserverSeesDiscards: frames the network delivers but the stack
// drops (stale epoch, interceptor veto) are in the fabric's reading, so
// delivered-frame accounting stays reconcilable.
func TestObserverSeesDiscards(t *testing.T) {
	fab := NewFabric()
	clk, net, a, b := newPair(t, []Option{WithFabric(fab)}, []Option{
		WithFabric(fab),
		WithInterceptor(DropIf(func(f *Frame) bool {
			return f.Dir == Inbound && f.Env.Kind == "veto.me"
		})),
	})
	b.Handle(func(netsim.Address, *wire.Envelope) {})

	// Interceptor veto.
	if err := a.Send("b", wire.NewEnvelope("veto.me", "", nil)); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()
	// Stale epoch: b's binder already adopted epoch 5 for a.
	adoptEpoch(b, "a", 5)
	if err := a.Send("b", wire.NewEnvelope("k", "", nil)); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()

	ns := net.Stats()
	if ns.Delivered != 2 {
		t.Fatalf("network delivered = %d", ns.Delivered)
	}
	if st := b.Stats("a"); st.DroppedIn != 1 || st.StaleIn != 1 || st.FramesIn != 0 || st.BytesIn != 0 {
		t.Fatalf("b's record of a = %+v", st)
	}
	if tot := fab.TotalsFor("b"); tot.DiscardsIn != 2 || tot.DiscardBytesIn != ns.Bytes || tot.FramesIn != 0 {
		t.Fatalf("fabric's reading of b = %+v, network %+v", tot, ns)
	}
	if err := fab.Reconcile(ns); err != nil {
		t.Fatal(err)
	}
}
