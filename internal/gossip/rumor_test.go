package gossip

import (
	"fmt"
	"slices"
	"testing"

	"mocca/internal/channel"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// raceEnabled is set by race_test.go when the tests run under -race.
var raceEnabled bool

// TestRumorKeyUnchanged: an entry's dedup key is the same at every member
// — the key a receiver takes over the decoded entry is the one the
// publisher marked — and entries naming different writes get different
// keys: another id, site or counter, or the same bytes split differently
// between id and site.
func TestRumorKeyUnchanged(t *testing.T) {
	msg := rumorReq{TTL: 2, Entries: append(rumorEntries(64),
		rumorEntry{ID: "obj-ünï-日本", Site: "köln", Counter: 1<<64 - 1}, rumorEntry{},
		rumorEntry{ID: "ab", Site: "c", Counter: 7}, rumorEntry{ID: "a", Site: "bc", Counter: 7},
		rumorEntry{ID: "ab", Site: "c", Counter: 8}, rumorEntry{ID: "ab", Site: "d", Counter: 7},
		rumorEntry{ID: "ac", Site: "c", Counter: 7})}
	body, _ := msg.AppendBinary(nil)
	var got rumorReq
	if err := got.UnmarshalBinary(body); err != nil {
		t.Fatal(err)
	}
	keys := map[uint64]rumorEntry{}
	for i, e := range got.Entries {
		if k, sent := e.key(), msg.Entries[i].key(); k != sent {
			t.Fatalf("%+v: key %#x after the wire, %#x before", e, k, sent)
		}
		if prev, dup := keys[e.key()]; dup {
			t.Fatalf("%+v and %+v share a key", prev, e)
		}
		keys[e.key()] = e
	}
}

// rumorsFrom collects the gossip.rumor bodies one endpoint announces, as
// the slices rpc was handed (not copies).
func rumorsFrom(addr netsim.Address, into *[][]byte) func(*channel.Frame) {
	return func(f *channel.Frame) {
		if method, _ := f.Env.Header("method"); f.Dir == channel.Outbound && f.Local == addr && method == MethodRumor && f.Env.Kind == "rpc.ann" {
			*into = append(*into, f.Env.Body)
		}
	}
}

// TestRumorForwardKeepsVectorBytes: entries a member vouches for go on to
// its active view exactly as they arrived — same ids, sites and counters —
// with the TTL one lower, in frames whose source is the forwarder.
func TestRumorForwardKeepsVectorBytes(t *testing.T) {
	var sent [][]byte
	clk, overlays, replicas := tappedOverlays(t, 4, rumorsFrom("gossip-g01", &sent))
	in := rumorReq{TTL: 3, Entries: []rumorEntry{
		{ID: "obj-a", Site: "s017", Counter: 18}, {ID: "obj-b", Site: "s001", Counter: 7}, {ID: "obj-c", Site: "g00", Counter: 1}}}
	for _, e := range in.Entries {
		replicas[1].rows[e.ID] = wideVV().Merge(vclock.Version{"s001": 7, "g00": 1}) // held: forwarded at once
	}
	body, _ := in.AppendBinary(nil)
	var req rumorReq
	if err := req.UnmarshalBinary(body); err != nil {
		t.Fatal(err)
	}
	overlays[1].handleRumor(wire.TraceContext{}, overlays[0].Self().Addr, req)
	clk.RunUntilIdle()
	if n := overlays[1].Stats().RumorFetches; n != 0 {
		t.Fatalf("a member holding every row pulled %d times", n)
	}
	if len(sent) == 0 {
		t.Fatal("nothing was forwarded")
	}
	for _, b := range sent {
		var out rumorReq
		if err := out.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		if out.TTL != in.TTL-1 || !slices.Equal(out.Entries, in.Entries) {
			t.Fatalf("forwarded %+v, received %+v", out, in)
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
	overlays[0].Publish("obj-1", vv, nil)
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

// TestRumorIsOneFrame: a published rumor costs the publisher one rpc.ann
// frame per active-view peer and nothing else — no call, so no reply frame
// comes back anywhere in the exchange — and the fan-out allocates the body
// once plus at most four allocations per target.
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
	o.Publish("obj-1", vv, nil)
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
			t.Fatalf("g%02d never got the rumored row", i+1)
		}
	}

	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what is put back, so pooled paths allocate")
	}
	req := rumorReq{TTL: DefaultTTL, Entries: []rumorEntry{{ID: "obj-2", Site: "g00", Counter: 1}}}
	targets := o.ActiveView()
	if n := testing.AllocsPerRun(100, func() { o.sendRumor(targets, req, wire.TraceContext{}) }); n > float64(1+4*k) {
		t.Fatalf("a rumor to %d targets allocates %v times, want at most %d", k, n, 1+4*k)
	}
}

// TestDuplicateRumorAllocatesNoVector: an entry the seen set already holds
// is dropped on its key — a rumor of duplicates costs what a rumor with no
// entries costs.
func TestDuplicateRumorAllocatesNoVector(t *testing.T) {
	_, overlays, _ := tappedOverlays(t, 3, func(*channel.Frame) {})
	o := overlays[1]
	from := overlays[0].Self().Addr
	dup := rumorReq{TTL: 3, Entries: rumorEntries(8)}
	o.handleRumor(wire.TraceContext{}, from, dup) // first sighting
	seen := o.Stats().RumorsSeen
	empty := rumorReq{TTL: 3}
	base := testing.AllocsPerRun(100, func() { o.handleRumor(wire.TraceContext{}, from, empty) })
	got := testing.AllocsPerRun(100, func() { o.handleRumor(wire.TraceContext{}, from, dup) })
	if got != base {
		t.Fatalf("a rumor of 8 duplicates allocates %v times, one with no entries %v", got, base)
	}
	if o.Stats().RumorsSeen <= seen {
		t.Fatal("the duplicates were not counted as seen")
	}
}

// TestRumorEntryIgnoresVectorWidth: a write's rumor names it by its dot,
// so the rumor for a row whose vector has one site and the rumor for a row
// whose vector has 64 put bodies of one length on the wire.
func TestRumorEntryIgnoresVectorWidth(t *testing.T) {
	var sent [][]byte
	clk, overlays, replicas := tappedOverlays(t, 3, rumorsFrom("gossip-g00", &sent))
	narrow := vclock.Version{"g00": 1}
	wide := vclock.Version{"g00": 1}
	for i := 1; i < 64; i++ {
		wide[fmt.Sprintf("s%03d", i)] = uint64(i)
	}
	replicas[0].rows["obj-1"] = narrow
	overlays[0].Publish("obj-1", narrow, nil)
	clk.RunUntilIdle()
	first := len(sent)
	replicas[0].rows["obj-2"] = wide
	overlays[0].Publish("obj-2", wide, nil)
	clk.RunUntilIdle()
	if first == 0 || len(sent) != 2*first {
		t.Fatalf("the two publishes sent %d and %d rumors", first, len(sent)-first)
	}
	if a, b := len(sent[0]), len(sent[first]); a != b {
		t.Fatalf("the rumor for a 1-site vector is %d bytes, for a 64-site vector %d", a, b)
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
	overlays[0].Publish("obj-1", vv, nil)
	clk.RunUntilIdle()
	if st := overlays[0].Stats(); len(sent) != 0 || st.RumorsPublished != 0 {
		t.Fatalf("a write with no tick of its own sent %d rumors (RumorsPublished %d)", len(sent), st.RumorsPublished)
	}
}

// TestRumorSenderIsFrameSource: a rumor names no sender, so the receiver
// takes the frame's source as one. A sender in neither of its views is
// looked up in the advertised membership — which alone knows its
// replication address — and lands in the passive view; the rows are
// pulled from that source, and the receipt counts as off-view.
func TestRumorSenderIsFrameSource(t *testing.T) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(7))
	var fetchedFrom []netsim.Address
	tap := rpc.WithChannel(channel.WithInterceptor(func(f *channel.Frame) error {
		if method, _ := f.Env.Header("method"); f.Dir == channel.Outbound && method == MethodFetch && f.Env.Kind == "rpc.req" {
			fetchedFrom = append(fetchedFrom, f.Remote)
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
		overlays[from].sendRumor([]Peer{o.Self()}, rumorReq{TTL: 1, Entries: []rumorEntry{{ID: id, Site: "g01", Counter: 1}}}, wire.TraceContext{})
		clk.RunUntilIdle()
		if _, ok := replicas[0].rows[id]; !ok {
			t.Fatalf("%s, rumored by %s, was never pulled", id, overlays[from].Self().Site)
		}
	}
	if want := []netsim.Address{sender.Addr, stranger.Addr}; !slices.Equal(fetchedFrom, want) {
		t.Fatalf("fetched from %v, want %v", fetchedFrom, want)
	}
	// The advertised sender joins the passive view as the membership names
	// it; the unadvertised one is fetched from but not remembered.
	if got := o.PassiveView(); !slices.Equal(got, []Peer{sender}) {
		t.Fatalf("passive view %v, want %v", got, []Peer{sender})
	}
	if n := o.Stats().RumorsOffView; n != 2 {
		t.Fatalf("RumorsOffView = %d, want 2", n)
	}
}
