package gossip

import (
	"bytes"
	"fmt"
	"testing"

	"mocca/internal/channel"
	"mocca/internal/netsim"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// raceEnabled is set by race_test.go when the tests run under -race.
var raceEnabled bool

// unsortedVV is a vector no sender here would write — sites out of order —
// that DecodeVersion still reads: what a forward must not tidy up.
func unsortedVV() []byte {
	b := wire.AppendUint64(nil, 2)
	b = wire.AppendUint64(wire.AppendString(b, "s009"), 4)
	return wire.AppendUint64(wire.AppendString(b, "s001"), 7)
}

// TestRumorKeyUnchanged: the dedup key over the bytes as received is the
// key the decoded vector gave — FNV-1a over the id, then over the vector's
// canonical encoding — so the seen set answers as it did.
func TestRumorKeyUnchanged(t *testing.T) {
	msg := rumorReq{From: Peer{Site: "s003"}, TTL: 2, Entries: append(rumorEntries(64),
		entryOf("nil-vv", nil), entryOf("obj-ünï-日本", wideVV()), entryOf("", vclock.Version{"": 0}))}
	body, _ := msg.AppendBinary(nil)
	var got rumorReq
	if err := got.UnmarshalBinary(body); err != nil {
		t.Fatal(err)
	}
	for _, e := range got.Entries {
		vv, rest, err := vclock.DecodeVersion(e.VV)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%q: entry bytes do not decode: %v, %d left", e.ID, err, len(rest))
		}
		want := fnv64(e.ID)
		for _, b := range vv.AppendBinary(nil) {
			want ^= uint64(b)
			want *= 1099511628211
		}
		if k := rumorKey(e.ID, e.VV); k != want {
			t.Fatalf("%q %v: key %#x, over the decoded vector %#x", e.ID, vv, k, want)
		}
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
// its active view exactly as they arrived — same ids, same vector bytes,
// canonical or not — with the TTL one lower.
func TestRumorForwardKeepsVectorBytes(t *testing.T) {
	var sent [][]byte
	clk, overlays, replicas := tappedOverlays(t, 4, rumorsFrom("gossip-g01", &sent))
	in := rumorReq{From: overlays[0].Self(), TTL: 3, Entries: []rumorEntry{
		entryOf("obj-a", wideVV()), {ID: "obj-b", VV: unsortedVV()}, entryOf("obj-c", nil)}}
	for _, e := range in.Entries {
		replicas[1].rows[e.ID] = wideVV().Merge(vclock.Version{"s001": 7}) // held: forwarded at once
	}
	body, _ := in.AppendBinary(nil)
	var req rumorReq
	if err := req.UnmarshalBinary(body); err != nil {
		t.Fatal(err)
	}
	overlays[1].handleRumor(wire.TraceContext{}, req)
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
		if out.TTL != in.TTL-1 || out.From != overlays[1].Self() || len(out.Entries) != len(in.Entries) {
			t.Fatalf("forwarded %+v, received %+v", out, in)
		}
		for i, e := range out.Entries {
			if e.ID != in.Entries[i].ID || !bytes.Equal(e.VV, in.Entries[i].VV) {
				t.Fatalf("entry %d forwarded as %q %x, received as %q %x", i, e.ID, e.VV, in.Entries[i].ID, in.Entries[i].VV)
			}
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
	req := rumorReq{From: o.Self(), TTL: DefaultTTL, Entries: []rumorEntry{entryOf("obj-2", vv)}}
	targets := o.ActiveView()
	if n := testing.AllocsPerRun(100, func() { o.sendRumor(targets, req, wire.TraceContext{}) }); n > float64(1+4*k) {
		t.Fatalf("a rumor to %d targets allocates %v times, want at most %d", k, n, 1+4*k)
	}
}

// TestDuplicateRumorAllocatesNoVector: an entry the seen set already holds
// is dropped on its bytes — a rumor of duplicates costs what a rumor with
// no entries costs, however wide their vectors.
func TestDuplicateRumorAllocatesNoVector(t *testing.T) {
	_, overlays, _ := tappedOverlays(t, 3, func(*channel.Frame) {})
	o := overlays[1]
	dup := rumorReq{From: overlays[0].Self(), TTL: 3}
	for i := 0; i < 8; i++ {
		dup.Entries = append(dup.Entries, entryOf(fmt.Sprintf("obj-%d", i), wideVV()))
	}
	o.handleRumor(wire.TraceContext{}, dup) // first sighting
	seen := o.Stats().RumorsSeen
	empty := rumorReq{From: dup.From, TTL: 3}
	base := testing.AllocsPerRun(100, func() { o.handleRumor(wire.TraceContext{}, empty) })
	got := testing.AllocsPerRun(100, func() { o.handleRumor(wire.TraceContext{}, dup) })
	if got != base {
		t.Fatalf("a rumor of 8 duplicates allocates %v times, one with no entries %v", got, base)
	}
	if o.Stats().RumorsSeen <= seen {
		t.Fatal("the duplicates were not counted as seen")
	}
}
