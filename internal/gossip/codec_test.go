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
	peers := make([]Peer, 12)
	for i := range peers {
		site := fmt.Sprintf("s%03d", i)
		peers[i] = Peer{Site: site, Addr: netsim.Address("gossip-" + site), Repl: netsim.Address("repl-" + site)}
	}
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
		wiretest.Of("peer", from),
		wiretest.Of("peer/edge", Peer{Site: "köln", Addr: "gossip-köln"}),
		wiretest.Of("peer/zero", Peer{}),
		wiretest.Of("joinResp", joinResp{Me: from, Active: peers[:1], Passive: peers[1:2]}),
		wiretest.Of("joinResp/views", joinResp{Me: from, Active: peers[:3], Passive: peers[3:]}),
		wiretest.Of("joinResp/first", joinResp{Me: from}, joinResp{Me: from, Active: []Peer{}, Passive: []Peer{}}),
		wiretest.Of("forwardJoinReq", forwardJoinReq{Joiner: from, TTL: DefaultWalkTTL}),
		wiretest.Of("forwardJoinReq/edge", forwardJoinReq{Joiner: Peer{Site: "köln"}, TTL: -1}),
		wiretest.Of("shuffleReq", shuffleReq{From: from, Sample: peers[:shuffleLen]}),
		wiretest.Of("shuffleReq/zero", shuffleReq{}, shuffleReq{Sample: []Peer{}}),
		wiretest.Of("shuffleResp", shuffleResp{Sample: peers[2:4]}),
		wiretest.Of("shuffleResp/zero", shuffleResp{}, shuffleResp{Sample: []Peer{}}),
	}
}

func TestBodiesGolden(t *testing.T) {
	wiretest.Golden(t, bodyCases(), map[string]string{
		"rumorReq/publish": "9100000004733030330000000b676f737369702d73303033000000097265706c2d733030330000000000000006000000" +
			"0000000001000000096f626a303030303030000000000000000100000004733030300000000000000002",
		"fetchReq": "9300000004733030330000000000000003000000096f626a303030303031000000106f626a2dc3bc6ec3af2de697a5e6" +
			"9cac00000000",
		"fetchResp/zero": "940000000000000000",
		"peer":           "9500000004733030330000000b676f737369702d73303033000000097265706c2d73303033",
		"joinResp": "9600000004733030330000000b676f737369702d73303033000000097265706c2d733030330000000000000001000000" +
			"04733030300000000b676f737369702d73303030000000097265706c2d73303030000000000000000100000004733030" +
			"310000000b676f737369702d73303031000000097265706c2d73303031",
		"forwardJoinReq":  "9700000004733030330000000b676f737369702d73303033000000097265706c2d733030330000000000000003",
		"shuffleReq/zero": "980000000000000000000000000000000000000000",
		"shuffleResp": "99000000000000000200000004733030320000000b676f737369702d73303032000000097265706c2d73303032000000" +
			"04733030330000000b676f737369702d73303033000000097265706c2d73303033",
	})
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
	noPeer := make([]byte, 3*4)           // three empty strings
	wiretest.RejectDamage(t, bodyCases(), map[string][]byte{
		"entries":        append(append(append([]byte{tagRumorReq}, noPeer...), wire.AppendUint64(nil, 6)...), huge...),
		"ids":            append([]byte{tagFetchReq, 0, 0, 0, 0}, huge...),
		"objects":        append([]byte{tagFetchResp}, huge...),
		"active":         append(append([]byte{tagJoinResp}, noPeer...), huge...),
		"passive":        append(append(append([]byte{tagJoinResp}, noPeer...), wire.AppendUint64(nil, 0)...), huge...),
		"shuffle sample": append(append([]byte{tagShuffleReq}, noPeer...), huge...),
		"shuffle reply":  append([]byte{tagShuffleResp}, huge...),
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

// rumorRound runs a real four-site overlay — joins, forward-joins, the
// stabilization rounds' neighbor requests, probes and shuffles — then a
// rumor exchange: publish at one site, pull and apply at the others. It
// returns every body it put on the wire by rpc method.
func rumorRound(tb testing.TB) map[string][][]byte {
	tb.Helper()
	bodies := map[string][][]byte{}
	clk, overlays, replicas := tappedOverlays(tb, 4, func(f *channel.Frame) {
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
	for i, rep := range replicas[1:] {
		if len(rep.rows) != 3 {
			tb.Fatalf("rumored rows did not land at g%02d: %v", i+1, rep.rows)
		}
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
	}
	for _, list := range bodies {
		for _, b := range list {
			f.Add(b)
		}
	}
	for _, c := range bodyCases() {
		f.Add(c.Encode(f))
	}
	wiretest.Fuzz(f, []wiretest.Case{
		wiretest.Of("rumorReq", rumorReq{}), wiretest.Of("fetchReq", fetchReq{}), wiretest.Of("fetchResp", fetchResp{}),
		wiretest.Of("peer", Peer{}), wiretest.Of("joinResp", joinResp{}), wiretest.Of("forwardJoinReq", forwardJoinReq{}),
		wiretest.Of("shuffleReq", shuffleReq{}), wiretest.Of("shuffleResp", shuffleResp{}),
	})
}

// TestRumorRoundBodiesAreBinary: every body of a real overlay's life —
// membership and rumor plane, request and reply — is a binary one or the
// empty body of a reply with nothing to say.
func TestRumorRoundBodiesAreBinary(t *testing.T) {
	bodies := rumorRound(t)
	for _, method := range []string{MethodJoin, MethodForwardJoin, MethodNeighbor, MethodShuffle, MethodProbe, MethodRumor, MethodFetch} {
		if len(bodies[method]) == 0 {
			t.Fatalf("the round put no %s body on the wire", method)
		}
	}
	for method, list := range bodies {
		for _, b := range list {
			if len(b) > 0 && b[0] < 0x80 {
				t.Fatalf("%s body opens with %#x: %q", method, b[0], b)
			}
		}
	}
}

var benchSink int

// BenchmarkRumorReqCodec prices one rumor batch — 64 entries — each way. (A
// rumor carries ids and vectors, no rows; BenchmarkSyncRespCodec in
// internal/replica prices the rows.)
func BenchmarkRumorReqCodec(b *testing.B) {
	msg := rumorReq{From: Peer{Site: "s003", Addr: "gossip-s003", Repl: "repl-s003"}, TTL: DefaultTTL, Entries: rumorEntries(64)}
	body, err := msg.AppendBinary(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			out, err := msg.AppendBinary(nil)
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
			if err := out.UnmarshalBinary(body); err != nil {
				b.Fatal(err)
			}
			benchSink += len(out.Entries)
		}
	})
}
