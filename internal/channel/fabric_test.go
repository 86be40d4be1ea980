package channel

import (
	"strings"
	"testing"

	"mocca/internal/netsim"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// fabricNet is a network whose stacks are all enrolled in one fabric.
type fabricNet struct {
	t   *testing.T
	clk *vclock.Simulated
	net *netsim.Network
	fab *Fabric
}

func newFabricNet(t *testing.T) *fabricNet {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	return &fabricNet{t: t, clk: clk, net: netsim.New(netsim.WithClock(clk), netsim.WithSeed(1)), fab: NewFabric()}
}

// open opens a stack at addr, on the address's existing node if it has one
// (which is what a restart does).
func (n *fabricNet) open(addr netsim.Address, opts ...Option) *Stack {
	node, ok := n.net.Node(addr)
	if !ok {
		node = n.net.MustAddNode(addr)
	}
	s := New(node, append(opts, WithFabric(n.fab))...)
	s.Handle(func(netsim.Address, *wire.Envelope) {})
	return s
}

// send delivers one frame with a size-byte body and returns its wire size.
func (n *fabricNet) send(from *Stack, to netsim.Address, size int) int64 {
	n.t.Helper()
	before := n.net.Stats().Bytes
	if err := from.Send(to, wire.NewEnvelope("k", "", make([]byte, size))); err != nil {
		n.t.Fatal(err)
	}
	n.clk.RunUntilIdle()
	return n.net.Stats().Bytes - before
}

func TestFabricBookkeeping(t *testing.T) {
	n := newFabricNet(t)
	a, _ := n.open("a"), n.open("b")
	sent := n.send(a, "b", 100) + n.send(a, "b", 50)
	a.Rebind("b")

	chans := n.fab.Channels()
	if len(chans) != 2 {
		t.Fatalf("channels = %d, want 2 (a→b and b←a)", len(chans))
	}
	ab := chans[0]
	if ab.Local != "a" || ab.Remote != "b" || ab.Epoch != 2 || ab.Rebinds != 1 {
		t.Fatalf("a→b record = %+v", ab)
	}
	if ab.FramesOut != 2 || ab.BytesOut != sent {
		t.Fatalf("a→b traffic = %+v", ab)
	}
	ba := chans[1]
	if ba.FramesIn != 2 || ba.BytesIn != sent {
		t.Fatalf("b←a traffic = %+v", ba)
	}

	// Each address with a binding counts as one node.
	totals := n.fab.Totals()
	if totals.Nodes != 2 || totals.Channels != 2 || totals.FramesOut != 2 || totals.FramesIn != 2 {
		t.Fatalf("totals = %+v", totals)
	}

	// A restart opens a new stack on a's node: the channel's books go on —
	// one record, counters summed, epoch from the new generation.
	sent += n.send(n.open("a"), "b", 10)
	chans = n.fab.Channels()
	if len(chans) != 2 {
		t.Fatalf("channels after restart = %+v", chans)
	}
	if ab := chans[0]; ab.Epoch != 1 || ab.Rebinds != 1 || ab.FramesOut != 3 || ab.BytesOut != sent {
		t.Fatalf("a→b record after restart = %+v", ab)
	}
	if err := n.fab.Reconcile(n.net.Stats()); err != nil {
		t.Fatal(err)
	}
}

func TestFabricReconcile(t *testing.T) {
	n := newFabricNet(t)
	a, b := n.open("a"), n.open("b")
	n.send(a, "b", 64)

	ns := n.net.Stats()
	if err := n.fab.Reconcile(ns); err != nil {
		t.Fatalf("reconcile failed: %v", err)
	}
	off := ns
	off.Sent++
	if err := n.fab.Reconcile(off); err == nil || !strings.Contains(err.Error(), "network sent 2") {
		t.Fatalf("mismatch not detected: %v", err)
	}
	off = ns
	off.Delivered++
	if err := n.fab.Reconcile(off); err == nil {
		t.Fatal("delivered mismatch not detected")
	}
	off = ns
	off.Bytes++
	if err := n.fab.Reconcile(off); err == nil {
		t.Fatal("bytes mismatch not detected")
	}

	// Frames the channel layer discarded (stale epoch, decode error,
	// interceptor veto) still reconcile: the network delivered them, the
	// binding record counts them as discards.
	adoptEpoch(b, "a", 5)
	stale := n.send(a, "b", 32)
	if err := n.fab.Reconcile(n.net.Stats()); err != nil {
		t.Fatalf("reconcile with discard failed: %v", err)
	}
	if totals := n.fab.Totals(); totals.DiscardsIn != 1 || totals.DiscardBytesIn != stale {
		t.Fatalf("totals = %+v", totals)
	}
}

func TestFabricTotalsFor(t *testing.T) {
	n := newFabricNet(t)
	gmd, upc, mta := n.open("repl-gmd"), n.open("repl-upc"), n.open("mta-gmd")
	n.open("mta-upc")
	n.open("user-idle")
	out := n.send(gmd, "repl-upc", 100)
	back := n.send(upc, "repl-gmd", 40)
	mail := n.send(mta, "mta-upc", 999)

	repl := n.fab.TotalsFor("repl-")
	if repl.Nodes != 2 || repl.Channels != 2 {
		t.Fatalf("repl slice = %+v", repl)
	}
	if repl.FramesOut != 2 || repl.BytesOut != out+back || repl.FramesIn != 2 || repl.BytesIn != out+back {
		t.Fatalf("repl counters = %+v", repl)
	}
	if mta := n.fab.TotalsFor("mta-"); mta.Channels != 2 || mta.BytesOut != mail {
		t.Fatalf("mta slice = %+v", mta)
	}
	// A stack that never bound is no node and has no channel.
	if none := n.fab.TotalsFor("user-"); none.Channels != 0 || none.Nodes != 0 {
		t.Fatalf("empty slice = %+v", none)
	}
	// The slices partition the fabric's totals.
	all := n.fab.Totals()
	if repl.FramesOut+n.fab.TotalsFor("mta-").FramesOut != all.FramesOut {
		t.Fatal("slices do not partition totals")
	}
}
