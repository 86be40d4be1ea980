package gossip

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mocca/internal/channel"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
	"mocca/internal/wire/wiretest"
)

// benchRow is the benchmark's fixture row (bench/store.go): the workload
// harness's seeded object on the shared interchange schema.
func benchRow(key int) *information.Object {
	id := fmt.Sprintf("obj%06d", key)
	owner := fmt.Sprintf("u%05d", key%2000)
	return &information.Object{
		ID: id, Schema: "mocca-interchange", Owner: owner, Site: "s000",
		Fields: map[string]string{
			"title":   "seed " + id,
			"body":    fmt.Sprintf("shared working material for act%04d", key%20),
			"author":  owner,
			"context": fmt.Sprintf("act%04d", key%20),
		},
		Version: 1, VV: vclock.NewVersion("s000"),
		Created: netsim.DefaultEpoch, Updated: netsim.DefaultEpoch,
	}
}

// edgeRows are rows at the corners of the row format, in the form they
// decode to (nil, not empty, maps).
func edgeRows() []*information.Object {
	at := time.Unix(0, 708080400123456789).UTC()
	return []*information.Object{
		{ID: "nil-fields", Schema: "doc", Owner: "ada", Site: "s0", Version: 3, VV: vclock.Version{"s0": 3}, Created: at, Updated: at},
		{ID: "nil-vv", Schema: "doc", Fields: map[string]string{"k": ""}, Created: at, Updated: at},
		{ID: "wide-vv", Schema: "doc", Site: "s017", VV: wideVV(), Fields: map[string]string{"title": "t"}, Created: at, Updated: at},
		{ID: "obj-ünï-日本", Schema: "dök", Owner: "jürgen", Site: "köln", Version: 1, VV: vclock.Version{"köln": 1},
			Fields: map[string]string{"títle": "naïve ☃"}, Created: at, Updated: at},
	}
}

func wideVV() vclock.Version {
	wide := vclock.Version{}
	for i := 0; i < 18; i++ {
		wide[fmt.Sprintf("s%03d", i)] = uint64(i + 1)
	}
	return wide
}

// entryOf is the rumor entry Publish builds for a write.
func entryOf(id string, vv vclock.Version) rumorEntry {
	return rumorEntry{ID: id, VV: vv.AppendBinary(nil)}
}

// rumorEntries is n rumor entries the size a 16-site organization's are.
func rumorEntries(n int) []rumorEntry {
	out := make([]rumorEntry, n)
	for i := range out {
		out[i] = entryOf(fmt.Sprintf("obj%06d", i), vclock.Version{"s000": uint64(i + 1), fmt.Sprintf("s%03d", i%16): 2})
	}
	return out
}

func bodyCases() []wiretest.Case {
	from := Peer{Site: "s003", Addr: "gossip-s003", Repl: "repl-s003"}
	rows := make([]*information.Object, 16)
	for i := range rows {
		rows[i] = benchRow(i)
	}
	return []wiretest.Case{
		wiretest.Of("rumorReq/publish", rumorReq{From: from, TTL: DefaultTTL, Entries: rumorEntries(1)}),
		wiretest.Of("rumorReq/batch", rumorReq{From: from, TTL: 1, Entries: rumorEntries(64)}),
		wiretest.Of("rumorReq/edge", rumorReq{From: Peer{Site: "köln", Addr: "gossip-köln"}, TTL: -1, Entries: []rumorEntry{
			entryOf("nil-vv", nil), entryOf("obj-ünï-日本", wideVV()), entryOf("", nil)}}),
		wiretest.Of("rumorReq/zero", rumorReq{}),
		wiretest.Of("fetchReq", fetchReq{Site: "s003", IDs: []string{"obj000001", "obj-ünï-日本", ""}}),
		wiretest.Of("fetchReq/zero", fetchReq{}),
		wiretest.Of("fetchResp", fetchResp{Objects: rows}),
		wiretest.Of("fetchResp/edge rows", fetchResp{Objects: edgeRows()}),
		wiretest.Of("fetchResp/zero", fetchResp{}),
	}
}

func TestBodiesRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, bodyCases())
	for _, c := range bodyCases() {
		if m, ok := c.Msg.(rumorReq); ok && m.size() != len(c.Encode(t)) {
			t.Fatalf("%s: size() = %d, the body is %d bytes", c.Name, m.size(), len(c.Encode(t)))
		}
	}
}

// TestBodiesCanonical: equal messages encode to equal bytes whatever
// order their maps were filled in.
func TestBodiesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ref := rumorReq{From: Peer{Site: "s003"}, TTL: 2, Entries: []rumorEntry{entryOf("wide", wideVV())}}
	want, _ := ref.AppendBinary(nil)
	wantRows, _ := fetchResp{Objects: []*information.Object{benchRow(5)}}.AppendBinary(nil)
	for trial := 0; trial < 10; trial++ {
		sites := make([]string, 0, 18)
		for s := range wideVV() {
			sites = append(sites, s)
		}
		rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
		vv := vclock.Version{}
		for _, s := range sites {
			vv[s] = wideVV()[s]
		}
		m := rumorReq{From: Peer{Site: "s003"}, TTL: 2, Entries: []rumorEntry{entryOf("wide", vv)}}
		if got, _ := m.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: rumorReq bytes depend on map insertion order", trial)
		}
		row := benchRow(5)
		fields := row.Fields
		row.Fields = map[string]string{}
		keys := []string{"title", "body", "author", "context"}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, k := range keys {
			row.Fields[k] = fields[k]
		}
		if got, _ := (fetchResp{Objects: []*information.Object{row}}).AppendBinary(nil); !bytes.Equal(got, wantRows) {
			t.Fatalf("trial %d: fetchResp bytes depend on map insertion order", trial)
		}
	}
}

// TestBodiesRejectDamage: a body cut anywhere, a count of 2^60 anywhere,
// one byte too many, another message's body, or JSON are all errors —
// without a panic and without an allocation sized by the bad count.
func TestBodiesRejectDamage(t *testing.T) {
	huge := wire.AppendUint64(nil, 1<<60) // each count, aimed at
	wiretest.RejectDamage(t, bodyCases(), map[string][]byte{
		"entries": append(append([]byte{tagRumorReq, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, wire.AppendUint64(nil, 6)...), huge...),
		"ids":     append([]byte{tagFetchReq, 0, 0, 0, 0}, huge...),
		"objects": append([]byte{tagFetchResp}, huge...),
	})
}

// tappedOverlays builds n joined overlays ("g00"…) over one simulated
// network with tap on every endpoint's channel stack, each over a fake
// replica.
func tappedOverlays(tb testing.TB, n int, tap func(*channel.Frame)) (*vclock.Simulated, []*Overlay, []*fakeReplica) {
	tb.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(7))
	withTap := rpc.WithChannel(channel.WithInterceptor(func(f *channel.Frame) error {
		tap(f)
		return nil
	}))
	var peers []Peer
	for i := 0; i < n; i++ {
		addr := netsim.Address(fmt.Sprintf("gossip-g%02d", i))
		peers = append(peers, Peer{Site: fmt.Sprintf("g%02d", i), Addr: addr, Repl: addr})
	}
	var overlays []*Overlay
	var replicas []*fakeReplica
	for _, p := range peers {
		ep := rpc.NewEndpoint(net.MustAddNode(p.Addr), clk, withTap)
		rep := newFakeReplica()
		replicas = append(replicas, rep)
		overlays = append(overlays, New(ep, clk, p.Site, p.Repl, rep, WithSeed(42),
			WithContacts(func() []Peer { return append([]Peer(nil), peers...) })))
	}
	for _, o := range overlays {
		o.Join()
	}
	clk.RunUntilIdle()
	return clk, overlays, replicas
}

// rumorRound runs a real two-site rumor exchange — publish at one site,
// pull and apply at the other — and returns every body it put on the wire
// by rpc method.
func rumorRound(tb testing.TB) map[string][][]byte {
	tb.Helper()
	bodies := map[string][][]byte{}
	clk, overlays, replicas := tappedOverlays(tb, 2, func(f *channel.Frame) {
		if f.Dir == channel.Outbound {
			method, _ := f.Env.Header("method")
			bodies[method] = append(bodies[method], bytes.Clone(f.Env.Body))
		}
	})
	for i := 0; i < 3; i++ {
		id, vv := fmt.Sprintf("obj-%d", i), vclock.Version{"g00": uint64(i + 1)}
		replicas[0].rows[id] = vv
		overlays[0].Publish(id, vv, nil)
	}
	clk.RunUntilIdle()
	if len(replicas[1].rows) != 3 {
		tb.Fatalf("rumored rows did not land: %v", replicas[1].rows)
	}
	return bodies
}

// FuzzGossipBodies: whatever bytes arrive, a decoder either refuses them
// or yields a message that encodes and decodes back to itself.
func FuzzGossipBodies(f *testing.F) {
	bodies := rumorRound(f)
	for _, method := range []string{MethodRumor, MethodFetch} {
		if len(bodies[method]) < 2 { // three rumors; a fetch request and its reply
			f.Fatalf("the seeding round put %d %s bodies on the wire", len(bodies[method]), method)
		}
		for _, b := range bodies[method] {
			f.Add(b)
		}
	}
	for _, c := range bodyCases() {
		f.Add(c.Encode(f))
	}
	wiretest.Fuzz(f, []wiretest.Case{
		wiretest.Of("rumorReq", rumorReq{}), wiretest.Of("fetchReq", fetchReq{}), wiretest.Of("fetchResp", fetchResp{}),
	})
}

// TestRumorRoundBodiesAreBinary: the rumor plane's bodies on a real
// exchange are the binary ones, and the membership messages beside them
// are still JSON.
func TestRumorRoundBodiesAreBinary(t *testing.T) {
	bodies := rumorRound(t)
	for method, list := range bodies {
		binaryPlane := method == MethodRumor || method == MethodFetch
		for _, b := range list {
			if len(b) == 0 {
				continue
			}
			if isBinary := b[0] >= 0x80; isBinary != binaryPlane {
				t.Fatalf("%s body opens with %#x", method, b[0])
			}
		}
	}
	if len(bodies[MethodJoin]) == 0 {
		t.Fatal("no membership traffic was recorded")
	}
}

var benchSink int

// BenchmarkRumorReqCodec prices one rumor batch — 64 entries — through the
// one body entry point, each way. (A rumor carries ids and vectors, no
// rows; BenchmarkSyncRespCodec in internal/replica prices the rows.)
func BenchmarkRumorReqCodec(b *testing.B) {
	msg := rumorReq{From: Peer{Site: "s003", Addr: "gossip-s003", Repl: "repl-s003"}, TTL: DefaultTTL, Entries: rumorEntries(64)}
	body, err := wire.EncodeBody(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			out, err := wire.EncodeBody(msg)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(out)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var out rumorReq
			if err := wire.DecodeBody(body, &out); err != nil {
				b.Fatal(err)
			}
			benchSink += len(out.Entries)
		}
	})
}
