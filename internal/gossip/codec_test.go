package gossip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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

// The schemas the rows below name, registered as the deployment and every
// test of the package declare them, and the sites of a 16-site
// organization, enrolled on the roster, before any test runs: whether a
// row names its schema by id or spells it, and whether a site travels as
// its roster index or spelled, then does not depend on test order.
func init() {
	for i := range 16 {
		vclock.Enrol(fmt.Sprintf("s%03d", i))
	}
	text := func(name string, required bool) information.Field {
		return information.Field{Name: name, Type: information.FieldText, Required: required}
	}
	for _, s := range []information.Schema{
		{Name: "mocca-interchange", Fields: []information.Field{text("title", true), text("body", false), text("author", false), text("context", false)}},
		{Name: "doc", Fields: []information.Field{text("title", true), text("body", false)}},
	} {
		if err := information.NewSchemaRegistry().Register(s); err != nil {
			panic(err)
		}
	}
}

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
		{ID: "wide-vv", Schema: "doc", Site: "s017", Version: wideVV().Sum(), VV: wideVV(), Fields: map[string]string{"title": "t"}, Created: at, Updated: at},
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

// someDots is n dots the size a 16-site organization's are.
func someDots(n int) []dot {
	out := make([]dot, n)
	for i := range out {
		out[i] = dot{Site: fmt.Sprintf("s%03d", i%16), Counter: uint64(i + 1)}
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
	pushed := make([]pushEntry, len(rows))
	for i, row := range rows {
		pushed[i] = pushEntry{Site: "s000", Counter: uint64(i + 1), Row: row}
	}
	minted := benchRow(3)
	minted.ID = "info-7-3ad1e85f" // an id a Space mints: said by its parts
	var edgePushed []pushEntry
	for _, row := range edgeRows() {
		edgePushed = append(edgePushed, pushEntry{Site: row.Site, Counter: 1<<64 - 1, Row: row})
	}
	return []wiretest.Case{
		wiretest.Of("rumorReq/publish", rumorReq{Entries: pushed[:1]}),
		wiretest.Of("rumorReq/minted", rumorReq{Entries: []pushEntry{{Site: "s000", Counter: 7, Row: minted}}}),
		wiretest.Of("rumorReq/batch", rumorReq{Entries: pushed}),
		wiretest.Of("rumorReq/edge rows", rumorReq{Entries: edgePushed}),
		wiretest.Of("rumorReq/zero", rumorReq{}, rumorReq{Entries: []pushEntry{}}),
		wiretest.Of("rumorReq/graft reply", rumorReq{Entries: pushed[3:5]}),
		wiretest.Of("ihaveReq", ihaveReq{Dots: someDots(1)}),
		wiretest.Of("ihaveReq/batch", ihaveReq{Dots: someDots(64)}),
		wiretest.Of("ihaveReq/edge", ihaveReq{Dots: []dot{{Site: "köln", Counter: 1<<64 - 1}, {}}}),
		wiretest.Of("ihaveReq/zero", ihaveReq{}, ihaveReq{Dots: []dot{}}),
		wiretest.Of("neighborReq", neighborReq{From: from}),
		wiretest.Of("neighborReq/ring", neighborReq{From: from, Ring: true}),
		wiretest.Of("neighborReq/lonely ring", neighborReq{From: from, Ring: true, Lonely: true}),
		wiretest.Of("neighborReq/zero", neighborReq{}),
		wiretest.Of("neighborResp", neighborResp{Accepted: true}),
		wiretest.Of("neighborResp/refused", neighborResp{}),
		wiretest.Of("graftReq", graftReq{Dots: someDots(2)}),
		wiretest.Of("graftReq/batch", graftReq{Dots: someDots(64)}),
		wiretest.Of("graftReq/edge", graftReq{Dots: []dot{{Site: "köln", Counter: 1<<64 - 1}, {}}}),
		wiretest.Of("graftReq/zero", graftReq{}, graftReq{Dots: []dot{}}),
		wiretest.Of("peer", from),
		wiretest.Of("peer/edge", Peer{Site: "köln", Addr: "gossip-köln"}),
		wiretest.Of("peer/zero", Peer{}),
		wiretest.Of("joinResp", joinResp{Me: from, Active: peers[:1], Passive: peers[1:2]}),
		wiretest.Of("joinResp/views", joinResp{Me: from, Active: peers[:3], Passive: peers[3:]}),
		wiretest.Of("joinResp/first", joinResp{Me: from}, joinResp{Me: from, Active: []Peer{}, Passive: []Peer{}}),
		wiretest.Of("forwardJoinReq", forwardJoinReq{Joiner: from, TTL: DefaultWalkTTL}),
		wiretest.Of("forwardJoinReq/edge", forwardJoinReq{Joiner: Peer{Site: "köln"}, TTL: 1<<64 - 1}),
		wiretest.Of("shuffleReq", shuffleReq{From: from, Sample: peers[:shuffleLen]}),
		wiretest.Of("shuffleReq/zero", shuffleReq{}, shuffleReq{Sample: []Peer{}}),
		wiretest.Of("shuffleResp", shuffleResp{Sample: peers[2:4]}),
		wiretest.Of("shuffleResp/zero", shuffleResp{}, shuffleResp{Sample: []Peer{}}),
	}
}

func TestBodiesGolden(t *testing.T) {
	wiretest.Golden(t, bodyCases(), map[string]string{
		"rumorReq/publish": "f80101010a6f626a3030303030300048d68860067530303030300101010109d39b5f4a6aa000000f" +
			"0e73656564206f626a3030303030302373686172656420776f726b696e67206d6174657269616c20666f722061637430" +
			"303030067530303030300761637430303030",
		"rumorReq/minted": "f801010700073ad1e85f0048d68860067530303030330101010109d39b5f4a6aa000000f" +
			"0e73656564206f626a3030303030332373686172656420776f726b696e67206d6174657269616c20666f722061637430" +
			"303033067530303030330761637430303033",
		"ihaveReq":         "f6010101",
		"neighborReq/ring": "9d04733030330b676f737369702d73303033097265706c2d7330303301",
		"neighborResp":     "9e01",
		"graftReq":         "f70201010202",
		"graftReq/zero":    "f700",
		"peer":             "9504733030330b676f737369702d73303033097265706c2d73303033",
		"joinResp": "9604733030330b676f737369702d73303033097265706c2d733030330104733030300b676f737369702d733030300972" +
			"65706c2d733030300104733030310b676f737369702d73303031097265706c2d73303031",
		"forwardJoinReq":  "9704733030330b676f737369702d73303033097265706c2d7330303303",
		"shuffleReq/zero": "9800000000",
		"shuffleResp": "990204733030320b676f737369702d73303032097265706c2d7330303204733030330b676f737369702d733030330972" +
			"65706c2d73303033",
	})
}

func TestBodiesRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, bodyCases())
}

// TestBodiesCanonical: equal messages encode to equal bytes whatever
// order their maps were filled in.
func TestBodiesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ref := benchRow(5)
	ref.VV = wideVV()
	wantRows, _ := rumorReq{Entries: []pushEntry{{Site: "s000", Counter: 1, Row: ref}}}.AppendBinary(nil)
	for trial := 0; trial < 10; trial++ {
		row := benchRow(5)
		sites := make([]string, 0, len(ref.VV))
		for s := range ref.VV {
			sites = append(sites, s)
		}
		rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
		row.VV = vclock.Version{}
		for _, s := range sites {
			row.VV[s] = ref.VV[s]
		}
		fields := row.Fields
		row.Fields = map[string]string{}
		keys := []string{"title", "body", "author", "context"}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, k := range keys {
			row.Fields[k] = fields[k]
		}
		if got, _ := (rumorReq{Entries: []pushEntry{{Site: "s000", Counter: 1, Row: row}}}).AppendBinary(nil); !bytes.Equal(got, wantRows) {
			t.Fatalf("trial %d: rumorReq bytes depend on map insertion order", trial)
		}
	}
}

// TestBodiesRejectDamage: a body cut anywhere, a count of 2^60 or a uvarint
// past 64 bits at each count, one byte too many, another message's body, or
// JSON are all errors — without a panic and without an allocation sized by
// the bad count.
func TestBodiesRejectDamage(t *testing.T) {
	noPeer := make([]byte, 3) // three empty strings
	wiretest.RejectDamage(t, bodyCases(), map[string][]byte{
		"pushed entries": {tagRumorReq},
		"ihave dots":     {tagIhaveReq},
		"graft dots":     {tagGraftReq},
		// The retired rumors — one carried its sender and whole vectors,
		// the other dots without rows — fail on their tags, as do the graft
		// by ids, its rows and the ihave whose dots carried ids.
		"retired rumor entries": append(append([]byte{0x91}, make([]byte, 3*4)...), binary.BigEndian.AppendUint64(nil, 6)...),
		"retired dot rumor":     {0x9A},
		"retired graft ids":     {0x93, 0, 0, 0, 0},
		"retired graft rows":    {0x94},
		"retired ihave ids":     {0x9C},
		// So do the push, ihave and graft whose sites were spelled, and
		// the push whose ids were.
		"retired spelled push":  {0x90},
		"retired spelled ids":   {0xF5},
		"retired spelled ihave": {0x9F},
		"retired spelled graft": {0xA0},
		// The forward-join whose TTL was eight bytes: the uvarint reads
		// its first, and seven are left over.
		"eight-byte TTL": append([]byte{tagForwardJoinReq, 0, 0, 0}, binary.BigEndian.AppendUint64(nil, 3)...),
		"active":         append([]byte{tagJoinResp}, noPeer...),
		"passive":        append(append([]byte{tagJoinResp}, noPeer...), 0),
		"shuffle sample": append([]byte{tagShuffleReq}, noPeer...),
		"shuffle reply":  {tagShuffleResp},
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
// rumor exchange: publishes at one site pushed and applied at the others,
// the duplicates pruned, the lazy peers told by ihave, and one graft of a
// write that was announced but never pushed. It returns every body it put
// on the wire by rpc method.
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
		overlays[0].Publish(id, vv)
	}
	clk.RunUntilIdle()
	for i, rep := range replicas[1:] {
		if len(rep.rows) != 3 {
			tb.Fatalf("rumored rows did not land at g%02d: %v", i+1, rep.rows)
		}
	}
	// A write g01 holds but only announces: g00 grafts it.
	replicas[1].rows["obj-graft"] = vclock.Version{"g01": 1}
	announceIhave(overlays[1], overlays[0], dot{Site: "g01", Counter: 1})
	clk.RunUntilIdle()
	if _, ok := replicas[0].rows["obj-graft"]; !ok {
		tb.Fatal("the announced write was never grafted")
	}
	return bodies
}

// announceIhave has from send to an ihave naming dots, as a flush does.
func announceIhave(from, to *Overlay, dots ...dot) {
	from.announce(to.Self().Addr, MethodIhave, ihaveReq{Dots: dots})
}

// FuzzGossipBodies: whatever bytes arrive, a decoder either refuses them
// or yields a message that encodes and decodes back to itself.
func FuzzGossipBodies(f *testing.F) {
	bodies := rumorRound(f)
	for _, method := range []string{MethodRumor, MethodIhave, MethodNeighbor, MethodGraft} {
		if len(bodies[method]) < 2 { // requests and replies, or pushes to several peers
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
	for _, b := range wiretest.Retired(f, "testdata/retired-bodies.txt") {
		f.Add(b)
	}
	wiretest.Fuzz(f, []wiretest.Case{
		wiretest.Of("rumorReq", rumorReq{}), wiretest.Of("ihaveReq", ihaveReq{}),
		wiretest.Of("neighborReq", neighborReq{}), wiretest.Of("neighborResp", neighborResp{}),
		wiretest.Of("graftReq", graftReq{}),
		wiretest.Of("peer", Peer{}), wiretest.Of("joinResp", joinResp{}), wiretest.Of("forwardJoinReq", forwardJoinReq{}),
		wiretest.Of("shuffleReq", shuffleReq{}), wiretest.Of("shuffleResp", shuffleResp{}),
	})
}

// TestRumorRoundBodiesAreBinary: every body of a real overlay's life —
// membership and rumor plane, request and reply — is a binary one or the
// empty body of a message with nothing to say.
func TestRumorRoundBodiesAreBinary(t *testing.T) {
	bodies := rumorRound(t)
	for _, method := range []string{MethodJoin, MethodForwardJoin, MethodNeighbor, MethodShuffle, MethodProbe,
		MethodRumor, MethodIhave, MethodPrune, MethodGraft} {
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

// BenchmarkIhaveReqCodec prices one ihave batch — 64 dots — each way. (An
// ihave carries dots alone, no ids or rows; BenchmarkSyncRespCodec in
// internal/replica prices the rows a push carries.)
func BenchmarkIhaveReqCodec(b *testing.B) {
	msg := ihaveReq{Dots: someDots(64)}
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
			var out ihaveReq
			if err := out.UnmarshalBinary(body); err != nil {
				b.Fatal(err)
			}
			benchSink += len(out.Dots)
		}
	})
}

// TestUnknownSchemaIDRefused: a push whose row names a schema id this
// process has not registered fails to decode with
// information.ErrUnknownSchema.
func TestUnknownSchemaIDRefused(t *testing.T) {
	known := binary.BigEndian.AppendUint32([]byte{0}, 0x48d68860) // the marker and the interchange id
	c := wiretest.Of("rumorReq", rumorReq{Entries: []pushEntry{{Site: "s000", Counter: 1, Row: benchRow(1)}, {Site: "s000", Counter: 2, Row: benchRow(2)}}})
	body := c.Encode(t)
	if bytes.Count(body, known) != 2 {
		t.Fatalf("the push's rows do not name the interchange schema by id: %x", body)
	}
	body = bytes.Replace(body, known, []byte{0, 0xde, 0xad, 0xbe, 0xef}, 1)
	if _, err := c.Decoded(body); !errors.Is(err, information.ErrUnknownSchema) {
		t.Fatalf("a row naming an unregistered schema: %v, want information.ErrUnknownSchema", err)
	}
}

// TestRetiredBodiesRefused: a push, ihave or graft as the code before the
// site roster wrote it, a push as the code before ids were said by their
// parts wrote it — and every other retired body — fails to decode as any
// of the messages that carry dots.
func TestRetiredBodiesRefused(t *testing.T) {
	for _, b := range wiretest.Retired(t, "testdata/retired-bodies.txt") {
		var push rumorReq
		var ihave ihaveReq
		var graft graftReq
		if len(b) > 0 && (push.UnmarshalBinary(b) == nil || ihave.UnmarshalBinary(b) == nil || graft.UnmarshalBinary(b) == nil) {
			t.Errorf("a retired body decoded: %x", b)
		}
	}
}

// TestUnknownSiteIndexRefused: a dot, or a pushed row's writer site or
// vector site, naming a roster index this process never enrolled fails to
// decode with vclock.ErrUnknownSite; and a push or a graft's reply that
// carries such a row, refused before any handler sees its rows, counts in
// the receiving replica's ApplyFailures.
func TestUnknownSiteIndexRefused(t *testing.T) {
	past := wire.AppendUvarint(nil, vclock.MaxRoster+1)
	dots := slices.Concat([]byte{1}, past, []byte{7})
	for name, c := range map[string]wiretest.Case{
		"ihave": wiretest.Of("ihaveReq", ihaveReq{}),
		"graft": wiretest.Of("graftReq", graftReq{}),
		"push":  wiretest.Of("rumorReq", rumorReq{}),
	} {
		body := append([]byte{map[string]byte{"ihave": tagIhaveReq, "graft": tagGraftReq, "push": tagRumorReq}[name]}, dots...)
		if _, err := c.Decoded(body); !errors.Is(err, vclock.ErrUnknownSite) {
			t.Errorf("%s: a dot past the roster: %v, want vclock.ErrUnknownSite", name, err)
		}
	}
	c := wiretest.Of("rumorReq", rumorReq{Entries: []pushEntry{{Site: "s000", Counter: 1, Row: benchRow(1)}}})
	body := c.Encode(t)
	owner := wire.AppendString(nil, "u00001") // benchRow(1)'s owner; s000, entry 0, writes
	at := slices.Concat(owner, []byte{1, 1, 1, 1})
	if !bytes.Contains(body, at) {
		t.Fatalf("the pushed row does not name s000 by its roster entry: %x", body)
	}
	for name, bad := range map[string][]byte{
		"writer site": slices.Concat(owner, past, []byte{1, 1, 1}),
		"vector site": slices.Concat(owner, []byte{1, 1}, past, []byte{1}),
	} {
		if _, err := c.Decoded(bytes.Replace(body, at, bad, 1)); !errors.Is(err, vclock.ErrUnknownSite) {
			t.Errorf("a pushed row's %s past the roster: %v, want vclock.ErrUnknownSite", name, err)
		}
	}

	// g00 pushes one write and answers a graft for another with rows that
	// name g00 past g01's roster: g01 applies neither, and counts both.
	f := newReplicatedPair(t)
	owner = wire.AppendString(nil, "anyone")
	at = vclock.AppendSite(bytes.Clone(owner), "g00")
	f.rewrite = func(fr *channel.Frame) {
		if bytes.Contains(fr.Env.Body, at) {
			fr.Env.Body = bytes.Replace(fr.Env.Body, at, slices.Concat(owner, past), 1)
		}
	}
	pushed, err := f.spaces[0].Put("anyone", "doc", map[string]string{"title": "pushed"})
	if err != nil {
		t.Fatal(err)
	}
	f.overlays[0].Publish(pushed.ID, pushed.VV)
	f.clk.RunUntilIdle()
	grafted, err := f.spaces[0].Put("anyone", "doc", map[string]string{"title": "grafted"})
	if err != nil {
		t.Fatal(err)
	}
	announceIhave(f.overlays[0], f.overlays[1], dot{Site: "g00", Counter: grafted.VV.Counter("g00")})
	f.clk.RunUntilIdle()
	if st := f.reps[1].Stats(); st.ApplyFailures != 2 || f.spaces[1].Len() != 0 || f.overlays[1].Stats().Grafts != 1 {
		t.Fatalf("a push and a graft reply naming a site past the roster: %d apply failures, %d rows, %d grafts; want 2, 0, 1",
			st.ApplyFailures, f.spaces[1].Len(), f.overlays[1].Stats().Grafts)
	}
}
