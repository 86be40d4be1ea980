package gossip

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mocca/internal/channel"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
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

// bodyCase is one message value and a way to make an empty one of its
// type to decode into.
type bodyCase struct {
	name string
	msg  encoding.BinaryAppender
	into func() encoding.BinaryUnmarshaler
}

func (c bodyCase) encode(tb testing.TB) []byte {
	tb.Helper()
	b, err := c.msg.AppendBinary(nil)
	if err != nil {
		tb.Fatalf("%s: encode: %v", c.name, err)
	}
	return b
}

// decoded returns the message a body decodes to, as a value.
func (c bodyCase) decoded(b []byte) (any, error) {
	p := c.into()
	err := p.UnmarshalBinary(b)
	return reflect.ValueOf(p).Elem().Interface(), err
}

func into[T any, P interface {
	*T
	encoding.BinaryUnmarshaler
}]() func() encoding.BinaryUnmarshaler {
	return func() encoding.BinaryUnmarshaler { return P(new(T)) }
}

func bodyCases() []bodyCase {
	from := Peer{Site: "s003", Addr: "gossip-s003", Repl: "repl-s003"}
	rows := make([]*information.Object, 16)
	for i := range rows {
		rows[i] = benchRow(i)
	}
	return []bodyCase{
		{"rumorReq/publish", rumorReq{From: from, TTL: DefaultTTL, Entries: rumorEntries(1)}, into[rumorReq]()},
		{"rumorReq/batch", rumorReq{From: from, TTL: 1, Entries: rumorEntries(64)}, into[rumorReq]()},
		{"rumorReq/edge", rumorReq{From: Peer{Site: "köln", Addr: "gossip-köln"}, TTL: -1, Entries: []rumorEntry{
			entryOf("nil-vv", nil), entryOf("obj-ünï-日本", wideVV()), entryOf("", nil)}}, into[rumorReq]()},
		{"rumorReq/zero", rumorReq{}, into[rumorReq]()},
		{"rumorResp", rumorResp{Want: 3}, into[rumorResp]()},
		{"rumorResp/zero", rumorResp{}, into[rumorResp]()},
		{"fetchReq", fetchReq{Site: "s003", IDs: []string{"obj000001", "obj-ünï-日本", ""}}, into[fetchReq]()},
		{"fetchReq/zero", fetchReq{}, into[fetchReq]()},
		{"fetchResp", fetchResp{Objects: rows}, into[fetchResp]()},
		{"fetchResp/edge rows", fetchResp{Objects: edgeRows()}, into[fetchResp]()},
		{"fetchResp/zero", fetchResp{}, into[fetchResp]()},
	}
}

func TestBodiesRoundTrip(t *testing.T) {
	for _, c := range bodyCases() {
		b := c.encode(t)
		if len(b) == 0 || b[0] < 0x80 {
			t.Fatalf("%s: body opens with %#x, which could start a JSON text", c.name, b[:1])
		}
		if m, ok := c.msg.(rumorReq); ok && m.size() != len(b) {
			t.Fatalf("%s: size() = %d, the body is %d bytes", c.name, m.size(), len(b))
		}
		got, err := c.decoded(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.msg) {
			t.Fatalf("%s: round trip\n got %+v\nwant %+v", c.name, got, c.msg)
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
	cases := bodyCases()
	for _, c := range cases {
		b := c.encode(t)
		for i := 0; i < len(b); i++ {
			if _, err := c.decoded(b[:i]); err == nil {
				t.Fatalf("%s: body cut at %d of %d decoded", c.name, i, len(b))
			}
		}
		for i := 1; i+8 <= len(b); i++ {
			bad := bytes.Clone(b)
			binary.BigEndian.PutUint64(bad[i:], 1<<60)
			_, _ = c.decoded(bad) // an error, or a changed counter: not a panic
		}
		if _, err := c.decoded(append(bytes.Clone(b), 0)); err == nil {
			t.Fatalf("%s: a trailing byte was accepted", c.name)
		}
		for _, other := range cases {
			if reflect.TypeOf(other.msg) == reflect.TypeOf(c.msg) {
				continue
			}
			if _, err := other.decoded(b); err == nil {
				t.Fatalf("%s decoded as %s", c.name, other.name)
			}
		}
		// Through the one entry point, both ways round.
		if err := wire.DecodeBody([]byte(`{"from":{"site":"s003"},"ttl":6,"entries":[]}`), c.into()); err == nil {
			t.Fatalf("%s: a JSON body was accepted by the binary decoder", c.name)
		}
		var jsonShape struct{ Site string }
		if err := wire.DecodeBody(b, &jsonShape); err == nil {
			t.Fatalf("%s: the binary body was accepted by the JSON decoder", c.name)
		}
	}
	// Each count, aimed at: 2^60 elements announced and a few bytes behind
	// it must be refused before anything is sized by the count.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	huge := wire.AppendUint64(nil, 1<<60)
	for name, body := range map[string][]byte{
		"entries": append(append([]byte{tagRumorReq, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, wire.AppendUint64(nil, 6)...), huge...),
		"ids":     append([]byte{tagFetchReq, 0, 0, 0, 0}, huge...),
		"objects": append([]byte{tagFetchResp}, huge...),
	} {
		big := append(body, make([]byte, 64)...)
		for _, c := range cases {
			if _, err := c.decoded(big); err == nil {
				t.Fatalf("%s count of 2^60 decoded as %s", name, c.name)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing counts of 2^60 allocated %d bytes", grew)
	}
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
		if len(bodies[method]) < 2 { // a request and a reply at least
			f.Fatalf("the seeding round put %d %s bodies on the wire", len(bodies[method]), method)
		}
		for _, b := range bodies[method] {
			f.Add(b)
		}
	}
	for _, c := range bodyCases() {
		f.Add(c.encode(f))
	}
	decoders := []bodyCase{
		{"rumorReq", nil, into[rumorReq]()}, {"rumorResp", nil, into[rumorResp]()},
		{"fetchReq", nil, into[fetchReq]()}, {"fetchResp", nil, into[fetchResp]()},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range decoders {
			first, err := d.decoded(data)
			if err != nil {
				continue
			}
			again, err := first.(encoding.BinaryAppender).AppendBinary(nil)
			if err != nil {
				t.Fatalf("%s: decoded message does not encode: %v", d.name, err)
			}
			second, err := d.decoded(again)
			if err != nil {
				t.Fatalf("%s: re-encoded body does not decode: %v", d.name, err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("%s: decode → encode → decode changed the message\nfirst  %+v\nsecond %+v", d.name, first, second)
			}
		}
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
