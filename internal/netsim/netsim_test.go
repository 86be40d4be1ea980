package netsim

import (
	"testing"
	"time"

	"mocca/internal/vclock"
)

func newTestNet(t *testing.T) (*Network, *vclock.Simulated) {
	t.Helper()
	clk := vclock.NewSimulated(DefaultEpoch)
	return New(WithClock(clk), WithSeed(42)), clk
}

func TestDeliveryBasic(t *testing.T) {
	net, clk := newTestNet(t)
	a := net.MustAddNode("a")
	b := net.MustAddNode("b")
	var got []Message
	b.Handle(func(m Message) { got = append(got, m) })

	if err := a.Send(Message{To: "b", Kind: "ping", Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("message delivered before time advanced")
	}
	clk.RunUntilIdle()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	if got[0].From != "a" || got[0].Kind != "ping" || string(got[0].Payload) != "hello" {
		t.Fatalf("unexpected message %+v", got[0])
	}
}

// raceEnabled is set by race_test.go when the tests run under -race.
var raceEnabled bool

// TestSendDeliverAllocations: a message from send to its handler costs the
// clock event that delivers it; the in-flight record is pooled and its
// delivery func bound once.
func TestSendDeliverAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what is put back, so pooled paths allocate")
	}
	net, clk := newTestNet(t)
	a, b := net.MustAddNode("a"), net.MustAddNode("b")
	got := 0
	b.Handle(func(m Message) { got += len(m.Payload) })
	payload := make([]byte, 512)
	n := testing.AllocsPerRun(500, func() {
		if err := a.Send(Message{To: "b", Kind: "bench", Payload: payload}); err != nil {
			t.Fatal(err)
		}
		clk.RunUntilIdle()
	})
	if n > 1 {
		t.Errorf("send → deliver allocates %v times, want at most 1 (the clock event)", n)
	}
	if got != 501*len(payload) {
		t.Fatalf("%d bytes delivered, want %d", got, 501*len(payload))
	}
}

func TestLatencyIsRespected(t *testing.T) {
	net, clk := newTestNet(t)
	a := net.MustAddNode("a")
	b := net.MustAddNode("b")
	net.SetLink("a", "b", LinkProfile{Latency: 80 * time.Millisecond})

	var deliveredAt time.Time
	b.Handle(func(m Message) { deliveredAt = clk.Now() })
	if err := a.Send(Message{To: "b"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(79 * time.Millisecond)
	if !deliveredAt.IsZero() {
		t.Fatal("delivered before latency elapsed")
	}
	clk.Advance(time.Millisecond)
	if deliveredAt.IsZero() {
		t.Fatal("not delivered at latency deadline")
	}
}

func TestBandwidthAddsSerializationDelay(t *testing.T) {
	net, clk := newTestNet(t)
	a := net.MustAddNode("a")
	b := net.MustAddNode("b")
	// 1 KB/s: a 1000-byte message takes 1s on the wire plus zero latency.
	net.SetLink("a", "b", LinkProfile{Bandwidth: 1000})

	var delivered bool
	b.Handle(func(m Message) { delivered = true })
	if err := a.Send(Message{To: "b", Payload: make([]byte, 1000)}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(900 * time.Millisecond)
	if delivered {
		t.Fatal("delivered before serialization delay")
	}
	clk.Advance(200 * time.Millisecond)
	if !delivered {
		t.Fatal("not delivered after serialization delay")
	}
}

func TestLossDropsDeterministically(t *testing.T) {
	net, clk := newTestNet(t)
	a := net.MustAddNode("a")
	b := net.MustAddNode("b")
	net.SetLink("a", "b", LinkProfile{Loss: 0.5})
	count := 0
	b.Handle(func(m Message) { count++ })
	const total = 1000
	for i := 0; i < total; i++ {
		if err := a.Send(Message{To: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	clk.RunUntilIdle()
	if count == 0 || count == total {
		t.Fatalf("delivered %d of %d with 50%% loss; loss not applied", count, total)
	}
	// Roughly half, within generous bounds.
	if count < total/3 || count > 2*total/3 {
		t.Fatalf("delivered %d of %d, far from 50%%", count, total)
	}
	st := net.Stats()
	if st.Dropped+st.Delivered != total {
		t.Fatalf("dropped %d + delivered %d != sent %d", st.Dropped, st.Delivered, total)
	}
}

func TestPartitionBlocksAndHealRestores(t *testing.T) {
	net, clk := newTestNet(t)
	a := net.MustAddNode("a")
	b := net.MustAddNode("b")
	count := 0
	b.Handle(func(m Message) { count++ })

	net.Partition([]Address{"a"}, []Address{"b"})
	if err := a.Send(Message{To: "b"}); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()
	if count != 0 {
		t.Fatal("message crossed partition")
	}
	net.Heal()
	if err := a.Send(Message{To: "b"}); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()
	if count != 1 {
		t.Fatalf("delivered %d after heal, want 1", count)
	}
	if st := net.Stats(); st.Blocked != 1 {
		t.Fatalf("Blocked = %d, want 1", st.Blocked)
	}
}

func TestPartitionRaisedMidFlightLosesTraffic(t *testing.T) {
	net, clk := newTestNet(t)
	a := net.MustAddNode("a")
	b := net.MustAddNode("b")
	net.SetLink("a", "b", LinkProfile{Latency: 100 * time.Millisecond})
	count := 0
	b.Handle(func(m Message) { count++ })
	if err := a.Send(Message{To: "b"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(50 * time.Millisecond)
	net.Partition([]Address{"a"}, []Address{"b"})
	clk.RunUntilIdle()
	if count != 0 {
		t.Fatal("in-flight message survived partition")
	}
}

func TestDownNode(t *testing.T) {
	net, clk := newTestNet(t)
	a := net.MustAddNode("a")
	b := net.MustAddNode("b")
	count := 0
	b.Handle(func(m Message) { count++ })

	b.SetDown(true)
	if b.Up() {
		t.Fatal("Up() = true after SetDown(true)")
	}
	if err := a.Send(Message{To: "b"}); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()
	if count != 0 {
		t.Fatal("down node received a message")
	}

	b.SetDown(false)
	if err := a.Send(Message{To: "b"}); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()
	if count != 1 {
		t.Fatalf("recovered node received %d, want 1", count)
	}

	a.SetDown(true)
	if err := a.Send(Message{To: "b"}); err == nil {
		t.Fatal("Send from down node succeeded, want error")
	}
}

func TestUnknownDestination(t *testing.T) {
	net, _ := newTestNet(t)
	a := net.MustAddNode("a")
	if err := a.Send(Message{To: "ghost"}); err == nil {
		t.Fatal("Send to unknown node succeeded")
	}
}

func TestDuplicateNodeRejected(t *testing.T) {
	net, _ := newTestNet(t)
	net.MustAddNode("a")
	if _, err := net.AddNode("a"); err == nil {
		t.Fatal("duplicate AddNode succeeded")
	}
}

func TestFIFOOrdering(t *testing.T) {
	net, clk := newTestNet(t)
	a := net.MustAddNode("a")
	b := net.MustAddNode("b")
	// Big jitter would reorder without FIFO.
	net.SetLink("a", "b", LinkProfile{Latency: time.Millisecond, Jitter: 50 * time.Millisecond, FIFO: true})
	var got []string
	b.Handle(func(m Message) { got = append(got, string(m.Payload)) })
	for _, s := range []string{"1", "2", "3", "4", "5", "6", "7", "8"} {
		if err := a.Send(Message{To: "b", Payload: []byte(s)}); err != nil {
			t.Fatal(err)
		}
	}
	clk.RunUntilIdle()
	if len(got) != 8 {
		t.Fatalf("delivered %d, want 8", len(got))
	}
	for i, s := range got {
		if want := string(rune('1' + i)); s != want {
			t.Fatalf("out-of-order delivery: %v", got)
		}
	}
}

func TestJitterCanReorderWithoutFIFO(t *testing.T) {
	net, clk := newTestNet(t)
	a := net.MustAddNode("a")
	b := net.MustAddNode("b")
	net.SetLink("a", "b", LinkProfile{Latency: time.Millisecond, Jitter: 50 * time.Millisecond})
	var got []string
	b.Handle(func(m Message) { got = append(got, string(m.Payload)) })
	for i := 0; i < 32; i++ {
		if err := a.Send(Message{To: "b", Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	clk.RunUntilIdle()
	inOrder := true
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("32 messages with 50ms jitter all arrived in order; jitter not applied")
	}
}

func TestAsymmetricLink(t *testing.T) {
	net, clk := newTestNet(t)
	a := net.MustAddNode("a")
	b := net.MustAddNode("b")
	net.SetDirectedLink("a", "b", LinkProfile{Latency: 10 * time.Millisecond})
	net.SetDirectedLink("b", "a", LinkProfile{Latency: 200 * time.Millisecond})

	var atB, atA time.Time
	b.Handle(func(m Message) { atB = clk.Now() })
	a.Handle(func(m Message) { atA = clk.Now() })
	if err := a.Send(Message{To: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(Message{To: "a"}); err != nil {
		t.Fatal(err)
	}
	clk.RunUntilIdle()
	if atB.Sub(DefaultEpoch) != 10*time.Millisecond {
		t.Fatalf("a->b latency = %v, want 10ms", atB.Sub(DefaultEpoch))
	}
	if atA.Sub(DefaultEpoch) != 200*time.Millisecond {
		t.Fatalf("b->a latency = %v, want 200ms", atA.Sub(DefaultEpoch))
	}
}

func TestStatsAccounting(t *testing.T) {
	net, clk := newTestNet(t)
	a := net.MustAddNode("a")
	b := net.MustAddNode("b")
	b.Handle(func(m Message) {})
	for i := 0; i < 10; i++ {
		if err := a.Send(Message{To: "b", Payload: make([]byte, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	clk.RunUntilIdle()
	st := net.Stats()
	if st.Sent != 10 || st.Delivered != 10 || st.Bytes != 1000 {
		t.Fatalf("stats = %+v, want 10 sent, 10 delivered, 1000 bytes", st)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Stats {
		clk := vclock.NewSimulated(DefaultEpoch)
		net := New(WithClock(clk), WithSeed(7))
		a := net.MustAddNode("a")
		b := net.MustAddNode("b")
		net.SetLink("a", "b", LinkProfile{Latency: time.Millisecond, Jitter: 10 * time.Millisecond, Loss: 0.3})
		b.Handle(func(m Message) {})
		for i := 0; i < 500; i++ {
			_ = a.Send(Message{To: "b", Payload: []byte{byte(i)}})
		}
		clk.RunUntilIdle()
		return net.Stats()
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Fatalf("two identical runs diverged: %+v vs %+v", s1, s2)
	}
}

func TestSizeOverride(t *testing.T) {
	net, clk := newTestNet(t)
	a := net.MustAddNode("a")
	b := net.MustAddNode("b")
	net.SetLink("a", "b", LinkProfile{Bandwidth: 1 << 20})
	var delivered bool
	b.Handle(func(m Message) { delivered = true })
	// 10 MB virtual body at 1 MB/s: 10 seconds on the wire.
	if err := a.Send(Message{To: "b", Size: 10 << 20}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(9 * time.Second)
	if delivered {
		t.Fatal("oversize message arrived early")
	}
	clk.Advance(2 * time.Second)
	if !delivered {
		t.Fatal("oversize message never arrived")
	}
}

// fifoEntries counts live FIFO high-water marks (white-box).
func (n *Network) fifoEntries() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.lastFIFO)
}

func TestFIFOBookkeepingPrunedOnHealAndCrash(t *testing.T) {
	net, clk := newTestNet(t)
	a := net.MustAddNode("a")
	b := net.MustAddNode("b")
	c := net.MustAddNode("c")
	var order []string
	b.Handle(func(m Message) { order = append(order, string(m.Payload)) })
	c.Handle(func(Message) {})
	// 1 KB/s bandwidth makes large messages slow, so FIFO marks matter.
	fifo := LinkProfile{Latency: 5 * time.Millisecond, FIFO: true, Bandwidth: 1024}
	net.SetLink("a", "b", fifo)
	net.SetLink("a", "c", fifo)

	for i := 0; i < 3; i++ {
		if err := a.Send(Message{To: "b", Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(Message{To: "c", Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	clk.RunUntilIdle()
	if got := net.fifoEntries(); got != 2 {
		t.Fatalf("fifo entries = %d, want 2", got)
	}

	// All marks are in the past now: a crash prunes the stale state.
	c.SetDown(true)
	if got := net.fifoEntries(); got != 0 {
		t.Fatalf("fifo entries after crash = %d, want 0", got)
	}
	c.SetDown(false)

	// An in-flight message's mark is in the future: Heal must keep it so
	// FIFO ordering survives, while hooks still fire.
	order = nil
	hooks := 0
	net.OnHeal(func() { hooks++ })
	if err := a.Send(Message{To: "b", Payload: []byte("1"), Size: 2048}); err != nil {
		t.Fatal(err) // ~2s transit at 1 KB/s
	}
	net.Partition([]Address{"a", "b"}, []Address{"c"})
	net.Heal()
	if hooks != 1 {
		t.Fatalf("heal hooks fired %d times", hooks)
	}
	if got := net.fifoEntries(); got != 1 {
		t.Fatalf("in-flight fifo mark pruned: entries = %d, want 1", got)
	}
	if err := a.Send(Message{To: "b", Payload: []byte("2")}); err != nil {
		t.Fatal(err) // small: would overtake "1" without the kept mark
	}
	clk.RunUntilIdle()
	if len(order) != 2 || order[0] != "1" || order[1] != "2" {
		t.Fatalf("order after heal = %v", order)
	}
	// Once delivered, the next heal clears the now-stale mark.
	net.Heal()
	if got := net.fifoEntries(); got != 0 {
		t.Fatalf("fifo entries after final heal = %d, want 0", got)
	}
}
