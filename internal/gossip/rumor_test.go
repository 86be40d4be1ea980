package gossip

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mocca/internal/channel"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// raceEnabled is set by race_test.go when the tests run under -race.
var raceEnabled bool

// TestRumorKeyUnchanged: a dot's dedup key is the same at every member —
// the key a receiver takes over the decoded dot is the one the publisher
// marked — and dots naming different writes get different keys: another
// site or counter, or the same bytes split differently between the two. The
// key is the dot alone, so a push of a dot seen on one row, on another row
// — the dot a restarted site issued again — is fresh: its row applies, it
// goes on, and no prune answers it; that push again is a duplicate.
func TestRumorKeyUnchanged(t *testing.T) {
	msg := ihaveReq{Dots: append(someDots(64),
		dot{Site: "köln", Counter: 1<<64 - 1}, dot{},
		dot{Site: "c", Counter: 7}, dot{Site: "c", Counter: 8}, dot{Site: "d", Counter: 7},
		dot{Site: "c\x00\x00\x00\x00\x00\x00\x00", Counter: 0}, dot{Site: "", Counter: 7})}
	body, _ := msg.AppendBinary(nil)
	var got ihaveReq
	if err := got.UnmarshalBinary(body); err != nil {
		t.Fatal(err)
	}
	keys := map[uint64]dot{}
	for i, d := range got.Dots {
		if k, sent := d.key(), msg.Dots[i].key(); k != sent {
			t.Fatalf("%+v: key %#x after the wire, %#x before", d, k, sent)
		}
		if prev, dup := keys[d.key()]; dup {
			t.Fatalf("%+v and %+v share a key", prev, d)
		}
		keys[d.key()] = d
	}

	var prunes, pushed [][]byte
	clk, overlays, replicas := tappedOverlays(t, 3, func(f *channel.Frame) {
		framesFrom("gossip-g01", MethodPrune, &prunes)(f)
		framesFrom("gossip-g01", MethodRumor, &pushed)(f)
	})
	from, o := overlays[0], overlays[1]
	for _, id := range []string{"obj-1", "obj-2"} {
		replicas[0].rows[id] = vclock.Version{"g00": 1}
	}
	o.receive(wire.TraceContext{}, from.Self().Addr, pushOf(replicas[0], rumorEntry{ID: "obj-1", Site: "g00", Counter: 1}).Entries, false)
	clk.RunUntilIdle()
	pruned, forwards, applied := len(prunes), len(pushed), replicas[1].applied
	again := pushOf(replicas[0], rumorEntry{ID: "obj-2", Site: "g00", Counter: 1}).Entries
	o.receive(wire.TraceContext{}, from.Self().Addr, again, false)
	clk.RunUntilIdle()
	if len(prunes) != pruned || replicas[1].applied != applied+1 || len(pushed) == forwards {
		t.Fatalf("a known dot on another row drew %d prunes, applied %d rows and went on %d times",
			len(prunes)-pruned, replicas[1].applied-applied, len(pushed)-forwards)
	}
	o.receive(wire.TraceContext{}, from.Self().Addr, again, false)
	if len(prunes) != pruned+1 {
		t.Fatalf("the same push again drew %d prunes, want 1", len(prunes)-pruned)
	}
}

// rumorsFrom collects the gossip.rumor bodies one endpoint announces, as
// the slices rpc was handed (not copies).
func rumorsFrom(addr netsim.Address, into *[][]byte) func(*channel.Frame) {
	return framesFrom(addr, MethodRumor, into)
}

// framesFrom collects the bodies of one method's announcements from addr.
func framesFrom(addr netsim.Address, method string, into *[][]byte) func(*channel.Frame) {
	return func(f *channel.Frame) {
		if m, _ := f.Env.Header("method"); f.Dir == channel.Outbound && f.Local == addr && m == method && f.Env.Kind == "rpc.ann" {
			*into = append(*into, f.Env.Body)
		}
	}
}

// pushOf builds the push of the rows a replica holds for dots.
func pushOf(rep *fakeReplica, dots ...rumorEntry) rumorReq {
	var req rumorReq
	for _, d := range dots {
		req.Entries = append(req.Entries, pushEntry{Site: d.Site, Counter: d.Counter,
			Row: &information.Object{ID: d.ID, VV: rep.rows[d.ID]}})
	}
	return req
}

// TestRumorForwardKeepsDots: the writes a member receives first go on to
// its eager peers under the dots they arrived with, each with the row the
// member now holds, in frames whose source is the forwarder.
func TestRumorForwardKeepsDots(t *testing.T) {
	var sent [][]byte
	clk, overlays, replicas := tappedOverlays(t, 4, rumorsFrom("gossip-g01", &sent))
	dots := []rumorEntry{{ID: "obj-a", Site: "s017", Counter: 18}, {ID: "obj-b", Site: "s001", Counter: 7}, {ID: "obj-c", Site: "g00", Counter: 1}}
	for _, d := range dots {
		replicas[0].rows[d.ID] = wideVV().Merge(vclock.Version{"s001": 7, "g00": 1})
	}
	body, _ := pushOf(replicas[0], dots...).AppendBinary(nil)
	var req rumorReq
	if err := req.UnmarshalBinary(body); err != nil {
		t.Fatal(err)
	}
	overlays[1].receive(wire.TraceContext{}, overlays[0].Self().Addr, req.Entries, false)
	clk.RunUntilIdle()
	if len(sent) == 0 {
		t.Fatal("nothing was forwarded")
	}
	for _, b := range sent {
		var out rumorReq
		if err := out.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		var got []rumorEntry
		for _, e := range out.Entries {
			got = append(got, e.entry())
			if !e.Row.VV.Dominates(replicas[0].rows[e.Row.ID]) {
				t.Fatalf("forwarded %s at %v, received it at %v", e.Row.ID, e.Row.VV, replicas[0].rows[e.Row.ID])
			}
		}
		if !slices.Equal(got, dots) {
			t.Fatalf("forwarded dots %+v, received %+v", got, dots)
		}
	}
}

// TestRumorFanOutEncodesOnce: one publish and one forward each build one
// body, and every target's call is handed that same slice.
func TestRumorFanOutEncodesOnce(t *testing.T) {
	var published, forwarded [][]byte
	clk, overlays, replicas := tappedOverlays(t, 5, func(f *channel.Frame) {
		rumorsFrom("gossip-g00", &published)(f)
		rumorsFrom("gossip-g01", &forwarded)(f)
	})
	vv := vclock.Version{"g00": 1}
	replicas[0].rows["obj-1"] = vv
	overlays[0].Publish("obj-1", vv)
	clk.RunUntilIdle()
	for name, bodies := range map[string][][]byte{"publish": published, "forward": forwarded} {
		if len(bodies) < 2 {
			t.Fatalf("%s reached %d targets; the fan-out needs at least two to mean anything", name, len(bodies))
		}
		for _, b := range bodies[1:] {
			if &b[0] != &bodies[0][0] || len(b) != len(bodies[0]) {
				t.Fatalf("%s: a target was sent its own encoding of the body", name)
			}
		}
	}
}

// TestRumorIsOneFrame: a published write costs the publisher one rpc.ann
// frame per eager peer and nothing else — no call, so no reply frame comes
// back anywhere in the exchange — and the fan-out allocates at most once
// plus four times per target, its frame: the rows are fetched and encoded
// once for all targets.
func TestRumorIsOneFrame(t *testing.T) {
	var announced [][]byte
	replies := 0
	clk, overlays, replicas := tappedOverlays(t, 5, func(f *channel.Frame) {
		rumorsFrom("gossip-g00", &announced)(f)
		if method, _ := f.Env.Header("method"); method == MethodRumor && f.Env.Kind == "rpc.rep" {
			replies++
		}
	})
	o := overlays[0]
	k := len(o.ActiveView())
	if k < 2 {
		t.Fatalf("the publisher's active view holds %d peers; a fan-out needs at least two", k)
	}
	before := o.ep.Stats()
	vv := vclock.Version{"g00": 1}
	replicas[0].rows["obj-1"] = vv
	o.Publish("obj-1", vv)
	after := o.ep.Stats()
	if after.CallsSent != before.CallsSent || after.Announcements != before.Announcements+int64(k) {
		t.Fatalf("publishing to %d peers moved calls %d -> %d and announcements %d -> %d",
			k, before.CallsSent, after.CallsSent, before.Announcements, after.Announcements)
	}
	clk.RunUntilIdle()
	if len(announced) != k || replies != 0 {
		t.Fatalf("publishing to %d peers sent %d rumor frames and drew %d replies", k, len(announced), replies)
	}
	for i, r := range replicas[1:] {
		if _, ok := r.rows["obj-1"]; !ok {
			t.Fatalf("g%02d never got the pushed row", i+1)
		}
	}

	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what is put back, so pooled paths allocate")
	}
	replicas[0].rows["obj-2"] = vclock.Version{"g00": 1}
	dots := []rumorEntry{{ID: "obj-2", Site: "g00", Counter: 1}}
	targets := o.ActiveView()
	if n := testing.AllocsPerRun(100, func() { o.push(targets, "", dots, wire.TraceContext{}) }); n > float64(1+4*k) {
		t.Fatalf("a push to %d targets allocates %v times, want at most %d", k, n, 1+4*k)
	}
}

// TestDuplicatePushIsPruned: a push whose dot the receiver has seen is a
// duplicate: the receiver answers with one prune and passes nothing on,
// and the sender makes it a lazy peer, so the next write reaches it as an
// ihave, not a row.
func TestDuplicatePushIsPruned(t *testing.T) {
	var prunes, pushed, ihaves [][]byte
	clk, overlays, replicas := tappedOverlays(t, 3, func(f *channel.Frame) {
		framesFrom("gossip-g01", MethodPrune, &prunes)(f)
		framesFrom("gossip-g01", MethodRumor, &pushed)(f)
		framesFrom("gossip-g00", MethodIhave, &ihaves)(f)
	})
	from, o := overlays[0], overlays[1]
	dot := rumorEntry{ID: "obj-1", Site: "g00", Counter: 1}
	replicas[0].rows["obj-1"] = vclock.Version{"g00": 1}
	dup := pushOf(replicas[0], dot)
	o.receive(wire.TraceContext{}, from.Self().Addr, dup.Entries, false) // first receipt
	clk.RunUntilIdle()
	pruned, forwards, seen := len(prunes), len(pushed), o.Stats().RumorsSeen
	o.receive(wire.TraceContext{}, from.Self().Addr, dup.Entries, false)
	if len(prunes) != pruned+1 || len(pushed) != forwards {
		t.Fatalf("a duplicate drew %d prunes and %d forwards", len(prunes)-pruned, len(pushed)-forwards)
	}
	clk.RunUntilIdle()
	if o.Stats().RumorsSeen != seen+1 {
		t.Fatal("the duplicate was not counted as an eager receipt")
	}
	replicas[0].rows["obj-2"] = vclock.Version{"g00": 1}
	from.Publish("obj-2", replicas[0].rows["obj-2"])
	clk.RunUntilIdle()
	if len(ihaves) == 0 {
		t.Fatal("the pruned peer was not told of the next write by ihave")
	}
	if _, ok := replicas[1].rows["obj-2"]; !ok {
		t.Fatal("the pruned peer never got the next write")
	}
}

// TestAntiEntropyFirstIsNoDuplicate: a row anti-entropy delivered before
// its push leaves the dot unseen, so the push draws no prune and the write
// goes on to the eager peers.
func TestAntiEntropyFirstIsNoDuplicate(t *testing.T) {
	var prunes, pushed [][]byte
	_, overlays, replicas := tappedOverlays(t, 4, func(f *channel.Frame) {
		framesFrom("gossip-g01", MethodPrune, &prunes)(f)
		framesFrom("gossip-g01", MethodRumor, &pushed)(f)
	})
	dot := rumorEntry{ID: "obj-1", Site: "g00", Counter: 1}
	replicas[0].rows["obj-1"] = vclock.Version{"g00": 1}
	replicas[1].rows["obj-1"] = vclock.Version{"g00": 1} // anti-entropy came first
	overlays[1].receive(wire.TraceContext{}, overlays[0].Self().Addr, pushOf(replicas[0], dot).Entries, false)
	if len(prunes) != 0 || len(pushed) == 0 {
		t.Fatalf("a push anti-entropy beat drew %d prunes and %d forwards", len(prunes), len(pushed))
	}
}

// TestIhaveIgnoresVectorWidth: a lazy peer is told of a write by its dot
// alone, so the ihave for a row whose vector has one site and a short id
// and the ihave for a row whose vector has 64 and an id of 200 bytes put
// bodies of one length on the wire.
func TestIhaveIgnoresVectorWidth(t *testing.T) {
	var sent [][]byte
	clk, overlays, replicas := tappedOverlays(t, 3, framesFrom("gossip-g00", MethodIhave, &sent))
	o := overlays[0]
	allLazy(o)
	narrow := vclock.Version{"g00": 1}
	wide := vclock.Version{"g00": 2}
	for i := 1; i < 64; i++ {
		wide[fmt.Sprintf("s%03d", i)] = uint64(i)
	}
	replicas[0].rows["obj-1"] = narrow
	o.Publish("obj-1", narrow)
	clk.RunUntilIdle()
	first := len(sent)
	allLazy(o) // the grafts the first ihave drew made the links eager again
	long := "obj-" + strings.Repeat("x", 196)
	replicas[0].rows[long] = wide
	o.Publish(long, wide)
	clk.RunUntilIdle()
	if first == 0 || len(sent) != 2*first {
		t.Fatalf("the two publishes sent %d and %d ihaves", first, len(sent)-first)
	}
	if a, b := len(sent[0]), len(sent[first]); a != b {
		t.Fatalf("the ihave for a 1-site vector and a 5-byte id is %d bytes, for a 64-site vector and a 200-byte id %d", a, b)
	}
}

// TestIhaveSkipsKnownHolder: a dot queued for a lazy peer leaves its queue
// when that peer pushes or announces the dot before the flush — it holds
// the write — so the flush sends it no ihave; a peer that showed nothing
// is told.
func TestIhaveSkipsKnownHolder(t *testing.T) {
	d := rumorEntry{ID: "obj-1", Site: "g00", Counter: 1}
	for _, tc := range []struct {
		name  string
		shows func(o, holder *Overlay, rep *fakeReplica)
		told  int64 // ihaves the holder gets, each naming the one dot
	}{
		{"silent", func(*Overlay, *Overlay, *fakeReplica) {}, 1},
		{"pushed", func(o, holder *Overlay, rep *fakeReplica) {
			o.receive(wire.TraceContext{}, holder.Self().Addr, pushOf(rep, d).Entries, false)
		}, 0},
		{"announced", func(o, holder *Overlay, _ *fakeReplica) {
			o.onIhave(holder.Self().Addr, []dot{d.dot()})
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sent [][]byte
			clk, overlays, replicas := tappedOverlays(t, 3, framesFrom("gossip-g01", MethodIhave, &sent))
			from, o, holder := overlays[0], overlays[1], overlays[2]
			allLazy(o)
			replicas[0].rows[d.ID] = vclock.Version{"g00": 1}
			o.receive(wire.TraceContext{}, from.Self().Addr, pushOf(replicas[0], d).Entries, false)
			tc.shows(o, holder, replicas[0])
			clk.RunUntilIdle()
			if st := o.Stats(); int64(len(sent)) != tc.told || st.IhaveDots != tc.told || st.IhaveSuppressed != 1-tc.told {
				t.Fatalf("the lazy peer got %d ihaves (IhaveDots %d, IhaveSuppressed %d), want %d",
					len(sent), st.IhaveDots, st.IhaveSuppressed, tc.told)
			}
		})
	}
}

// allLazy makes every active peer of o a lazy one.
func allLazy(o *Overlay) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range o.active {
		o.lazy[p.Addr] = true
	}
}

// TestPublishWithoutOwnTickSendsNothing: a vector whose entry for the
// publishing site is zero names no write of that site's, so there is no
// dot to announce and Publish sends nothing — anti-entropy carries the row.
func TestPublishWithoutOwnTickSendsNothing(t *testing.T) {
	var sent [][]byte
	clk, overlays, replicas := tappedOverlays(t, 3, rumorsFrom("gossip-g00", &sent))
	vv := vclock.Version{"g01": 4}
	replicas[0].rows["obj-1"] = vv
	overlays[0].Publish("obj-1", vv)
	clk.RunUntilIdle()
	if st := overlays[0].Stats(); len(sent) != 0 || st.RumorsPublished != 0 {
		t.Fatalf("a write with no tick of its own sent %d rumors (RumorsPublished %d)", len(sent), st.RumorsPublished)
	}
}

// TestPublishToEmptyViewIsNotCounted: a write published while the active
// view is empty reaches nobody, so it is not counted as published.
func TestPublishToEmptyViewIsNotCounted(t *testing.T) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(7))
	rep := newFakeReplica()
	o := New(rpc.NewEndpoint(net.MustAddNode("gossip-g00"), clk), clk, "g00", "repl-g00", rep)
	vv := vclock.Version{"g00": 1}
	rep.rows["obj-1"] = vv
	o.Publish("obj-1", vv)
	clk.RunUntilIdle()
	if n := o.Stats().RumorsPublished; n != 0 {
		t.Fatalf("a publish with an empty active view counted as %d", n)
	}
}

// TestRumorSenderIsFrameSource: a push names no sender, so the receiver
// takes the frame's source as one. A sender in neither of its views is
// looked up in the advertised membership — which alone knows its
// replication address — and lands in the passive view; the pushed rows
// are applied, each entry counts as off-view, and the sender, which holds
// a link this end does not, is told to drop it.
func TestRumorSenderIsFrameSource(t *testing.T) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(7))
	var disconnected []netsim.Address
	tap := rpc.WithChannel(channel.WithInterceptor(func(f *channel.Frame) error {
		if method, _ := f.Env.Header("method"); f.Dir == channel.Outbound && method == MethodDisconnect {
			disconnected = append(disconnected, f.Remote)
		}
		return nil
	}))
	sender := Peer{Site: "g01", Addr: "gossip-g01", Repl: "repl-g01"}
	stranger := Peer{Site: "g02", Addr: "gossip-g02", Repl: "repl-g02"}
	advertised := []Peer{{Site: "g00", Addr: "gossip-g00", Repl: "repl-g00"}, sender}
	contacts := WithContacts(func() []Peer { return append([]Peer(nil), advertised...) })
	var overlays []*Overlay
	var replicas []*fakeReplica
	for _, p := range []Peer{advertised[0], sender, stranger} {
		rep := newFakeReplica()
		replicas = append(replicas, rep)
		overlays = append(overlays, New(rpc.NewEndpoint(net.MustAddNode(p.Addr), clk, tap), clk, p.Site, p.Repl, rep, contacts))
	}
	o := overlays[0] // never joined: both its views are empty
	for i, from := range []int{1, 2} {
		id := fmt.Sprintf("obj-%d", i)
		replicas[from].rows[id] = vclock.Version{"g01": 1}
		overlays[from].push([]Peer{o.Self()}, "", []rumorEntry{{ID: id, Site: "g01", Counter: 1}}, wire.TraceContext{})
		clk.RunUntilIdle()
		if _, ok := replicas[0].rows[id]; !ok {
			t.Fatalf("%s, pushed by %s, was never applied", id, overlays[from].Self().Site)
		}
	}
	if want := []netsim.Address{sender.Addr, stranger.Addr}; !slices.Equal(disconnected, want) {
		t.Fatalf("told %v to drop their links, want %v", disconnected, want)
	}
	// The advertised sender joins the passive view as the membership names
	// it; the unadvertised one is not remembered.
	if got := o.PassiveView(); !slices.Equal(got, []Peer{sender}) {
		t.Fatalf("passive view %v, want %v", got, []Peer{sender})
	}
	if n := o.Stats().RumorsOffView; n != 2 {
		t.Fatalf("RumorsOffView = %d, want 2", n)
	}
}
