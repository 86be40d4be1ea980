package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"mocca/internal/channel"
	"mocca/internal/id"
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

func benchRows(n int) []*information.Object {
	rows := make([]*information.Object, n)
	for i := range rows {
		rows[i] = benchRow(i)
	}
	return rows
}

// edgeRows are rows at the corners of the row format, in the form they
// decode to (nil, not empty, maps).
func edgeRows() []*information.Object {
	wide := vclock.Version{}
	for i := 0; i < 18; i++ {
		wide[fmt.Sprintf("s%03d", i)] = uint64(i + 1)
	}
	at := time.Unix(0, 708080400123456789).UTC()
	return []*information.Object{
		{ID: "nil-fields", Schema: "doc", Owner: "ada", Site: "s0", Version: 3, VV: vclock.Version{"s0": 3}, Created: at, Updated: at},
		{ID: "nil-vv", Schema: "doc", Fields: map[string]string{"k": ""}, Created: at, Updated: at},
		{ID: "wide-vv", Schema: "doc", Site: "s017", Version: wide.Sum(), VV: wide, Fields: map[string]string{"title": "t"}, Created: at, Updated: at},
		{ID: "obj-ünï-日本", Schema: "dök", Owner: "jürgen", Site: "köln", Version: 1, VV: vclock.Version{"köln": 1},
			Fields: map[string]string{"títle": "naïve ☃"}, Created: at, Updated: at},
	}
}

// mintedDigest is a digest of ids a Space mints beside one it does not.
func mintedDigest() map[string]vclock.Version {
	return map[string]vclock.Version{"info-7-3ad1e85f": {"s000": 2}, "info-1203-0c9e77a2": {"s000": 1, "s001": 4}, "obj000001": {"s000": 1}}
}

func benchDigest(n int) map[string]vclock.Version {
	d := make(map[string]vclock.Version, n)
	for i := 0; i < n; i++ {
		d[fmt.Sprintf("obj%06d", i)] = vclock.Version{"s000": uint64(i + 1), fmt.Sprintf("s%03d", i%16): 2}
	}
	return d
}

// mintedRows are two of the benchmark's rows under ids a Space mints, one
// with a one-byte sequence and one with a two-byte one.
func mintedRows() []*information.Object {
	a, b := benchRow(3), benchRow(4)
	a.ID, b.ID = "info-7-3ad1e85f", "info-1203-0c9e77a2"
	return []*information.Object{a, b}
}

func benchWant(n int) []string {
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("obj%06d", 3*i)
	}
	return want
}

// childrenSection builds a reply's children section: a uvarint count, then
// per parent path, the path and MerkleFanout made-up child hashes.
func childrenSection(parents ...uint64) []byte {
	b := wire.AppendUvarint(nil, uint64(len(parents)))
	for _, path := range parents {
		b = binary.BigEndian.AppendUint64(b, path)
		for j := range information.MerkleFanout {
			b = binary.BigEndian.AppendUint64(b, uint64(j+1)*0x9e3779b97f4a7c15^path)
		}
	}
	return b
}

// marksOf encodes hw as a marks section, the layout
// information.AppendMarks writes: a count, then per site in name order
// its name and its mark.
func marksOf(hw map[string]uint64) []byte {
	b := wire.AppendUvarint(nil, uint64(len(hw)))
	for _, site := range slices.Sorted(maps.Keys(hw)) {
		b = wire.AppendUvarint(wire.AppendString(b, site), hw[site])
	}
	return b
}

// wholeMarks carries section whole, as the first marks to a peer go.
func wholeMarks(section []byte) marksMsg { return marksMsg{Gen: 1, Section: section} }

// bodyCases covers every message type: on the benchmark's fixture rows,
// on the edge rows, and at the corners of each message's own shape.
func bodyCases() []wiretest.Case {
	root := wire.AppendTreeFrames(nil, []wire.TreeFrame{{Path: wire.PackTreePath(0, 0), Hash: 0xfeedface}})
	frames := make([]wire.TreeFrame, information.MerkleFanout)
	for i := range frames {
		frames[i] = wire.TreeFrame{Path: wire.PackTreePath(1, uint32(i)), Hash: uint64(i) * 0x9e3779b97f4a7c15}
	}
	base := map[string]uint64{"s000": 41, "s001": 7, "köln": 1 << 40}
	hw := marksOf(base)
	cur := marksOf(map[string]uint64{"s000": 44, "s001": 7, "s002": 1, "köln": 1<<40 + 1})
	delta, _ := information.AppendMarksDelta(nil, hw, cur)
	return append([]wiretest.Case{
		wiretest.Of("digestReq/opening", digestReq{Frames: root, Marks: wholeMarks(hw)}),
		wiretest.Of("digestReq/empty replica", digestReq{Frames: root, Marks: wholeMarks(marksOf(nil))}),
		wiretest.Of("digestReq/ack", digestReq{Frames: root, Marks: marksMsg{Gen: 1 << 20, Ack: 300, Section: hw}}),
		wiretest.Of("digestReq/delta", digestReq{Frames: root,
			Marks: marksMsg{Gen: 9, Ack: 4, Base: 8, Check: information.MarksCheck(cur), Section: delta}}),
		wiretest.Of("digestReq/follow-up", digestReq{Frames: wire.AppendTreeFrames(nil, frames)}),
		wiretest.Of("digestReq/zero", digestReq{}),
		wiretest.Of("digestResp/mismatch rows", digestResp{Marks: wholeMarks(marksOf(nil)), Deltas: benchRows(16)}),
		wiretest.Of("digestResp/delta rows", digestResp{Marks: marksMsg{Gen: 3, Base: 2, Check: 0xfeedface, Section: delta}, Deltas: benchRows(2)}),
		wiretest.Of("digestResp/full", digestResp{Full: true, Marks: wholeMarks(hw)}),
		wiretest.Of("digestResp/match full", digestResp{Match: true, Full: true}),
		wiretest.Of("digestResp/edge rows", digestResp{Deltas: edgeRows()}),
		wiretest.Of("syncReq", syncReq{Digest: benchDigest(64), Scope: []uint32{0, 17, 4095}}),
		wiretest.Of("syncReq/minted ids", syncReq{Digest: mintedDigest(), Scope: []uint32{9}}),
		wiretest.Of("syncReq/no digest", syncReq{Scope: []uint32{9}}),
		wiretest.Of("syncReq/zero", syncReq{}),
		wiretest.Of("syncResp", syncResp{Want: benchWant(64), Deltas: benchRows(16)}),
		wiretest.Of("syncResp/edge rows", syncResp{Want: []string{"nil-vv", "obj-ünï-日本"}, Deltas: edgeRows()}),
		wiretest.Of("syncResp/minted rows", syncResp{Want: []string{"info-1203-0c9e77a2"}, Deltas: mintedRows()}),
		wiretest.Of("syncResp/zero", syncResp{}),
		wiretest.Of("pushReq", pushReq{Objects: benchRows(3)}),
		wiretest.Of("pushReq/edge rows", pushReq{Objects: edgeRows()}),
		wiretest.Of("pushReq/minted rows", pushReq{Objects: mintedRows()}),
		wiretest.Of("pushResp", pushResp{Applied: 3}),
		wiretest.Of("pushResp/wide", pushResp{Applied: 1 << 40}),
		wiretest.Of("pushResp/zero", pushResp{}),
	}, goldenCases()...)
}

// goldenCases are the bodies whose layout is pinned byte for byte: the
// children section, the marks only on a mismatch, the want-list — an id a
// Space minted by its parts, any other spelled — a digest and a push of
// rows under minted ids, a push that is its rows and nothing after them,
// and a push reply that is one uvarint.
func goldenCases() []wiretest.Case {
	return []wiretest.Case{
		wiretest.Of("digestResp/match", digestResp{Match: true}),
		wiretest.Of("digestResp/mismatch", digestResp{Children: childrenSection(wire.PackTreePath(0, 0)), Marks: wholeMarks(marksOf(map[string]uint64{"s000": 41}))}),
		wiretest.Of("digestResp/delta", digestResp{Marks: marksMsg{Gen: 7, Base: 6, Check: 0x01020304, Section: []byte{1, 2, 3, 0}}}),
		wiretest.Of("digestResp/descent", digestResp{Children: childrenSection(wire.PackTreePath(1, 3), wire.PackTreePath(2, 255))}),
		wiretest.Of("syncResp/want", syncResp{Want: []string{"info-7-3ad1e85f", "obj000003"}}),
		wiretest.Of("syncReq/minted", syncReq{Digest: map[string]vclock.Version{"info-7-3ad1e85f": {"s000": 2}}, Scope: []uint32{9}}),
		wiretest.Of("pushReq/minted", pushReq{Objects: mintedRows()[:1]}),
		wiretest.Of("pushResp/one", pushResp{Applied: 1}),
		wiretest.Of("pushReq/no rows", pushReq{}),
	}
}

func TestBodiesGolden(t *testing.T) {
	wiretest.Golden(t, goldenCases(), map[string]string{
		"digestResp/match":    "fa0100",
		"digestResp/delta":    "fa140706010203040102030000",
		"digestResp/mismatch": "fa060100000000000000009e3779b97f4a7c153c6ef372fe94f82adaa66d2c7ddf743f78dde6e5fd29f0541715609f7c746c69b54cda58fbbee87e538454127b096493f1bbcdcbfa53e0a88ff34785799e5cbd2e2ac13ef8e8d8d2cc623af8783354e76a99b4b1f77dd0fc08d12e6b76c84d11a708a824f612c926454021de755d453be3779b97f4a7c150010104733030302900",
		"digestResp/descent":  "fa020200000001000000039e3779b87f4a7c163c6ef373fe94f829daa66d2d7ddf743c78dde6e4fd29f0571715609e7c746c6ab54cda59fbbee87d538454137b096490f1bbcdcafa53e0ab8ff34784799e5cbe2e2ac13ff8e8d8d1cc623af9783354e46a99b4b0f77dd0ff08d12e6a76c84d12a708a825f612c925454021df755d4538e3779b96f4a7c15300000002000000ff9e3779bb7f4a7cea3c6ef370fe94f8d5daa66d2e7ddf74c078dde6e7fd29f0ab1715609d7c746c96b54cda5afbbee881538454107b09646cf1bbcdc9fa53e0578ff34787799e5c422e2ac13cf8e8d82dcc623afa783354186a99b4b3f77dd00308d12e6976c84deea708a826f612c9d9454021dc755d45c4e3779b95f4a7c1af00",
		"syncResp/want":       "fb0200073ad1e85f0a6f626a30303030303300",
		"syncReq/minted":      "fe0100073ad1e85f010473303030020100000009",
		"pushReq/minted": "fc0100073ad1e85f0048d68860067530303030330101010109d39b5f4a6aa000000f0e73656564206f626a3030303030" +
			"332373686172656420776f726b696e67206d6174657269616c20666f722061637430303033067530303030330761637430303033",
		"pushReq/no rows": "fc00",
		"pushResp/one":    "fd01",
	})
}

func TestBodiesRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, bodyCases())
	// The distinction the opening call rests on, spelled out: empty marks
	// are not absent ones.
	var opening, followUp digestReq
	if err := opening.UnmarshalBinary(bodyCases()[1].Encode(t)); err != nil || !bytes.Equal(opening.Marks.Section, []byte{0}) {
		t.Fatalf("empty marks decoded as %#v (%v), want a section of no marks", opening.Marks, err)
	}
	if err := followUp.UnmarshalBinary(bodyCases()[4].Encode(t)); err != nil || followUp.Marks.Section != nil {
		t.Fatalf("absent marks decoded as %#v (%v), want nil", followUp.Marks, err)
	}
}

// TestBodiesCanonical: equal messages encode to equal bytes whatever
// order their maps (and the tree's sites) were filled in — what keeps a workload's byte counts
// and fingerprint a function of the seed.
func TestBodiesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ref := syncReq{Digest: benchDigest(64)}
	want, _ := ref.AppendBinary(nil)
	refRows := digestResp{Deltas: benchRows(16)}
	wantRows, _ := refRows.AppendBinary(nil)
	wantReq, _ := digestReq{Marks: wholeMarks(marksOf(map[string]uint64{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}))}.AppendBinary(nil)
	for trial := 0; trial < 10; trial++ {
		m := syncReq{Digest: map[string]vclock.Version{}}
		ids := make([]string, 0, len(ref.Digest))
		for id := range ref.Digest {
			ids = append(ids, id)
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids {
			sites := make([]string, 0, len(ref.Digest[id]))
			for s := range ref.Digest[id] {
				sites = append(sites, s)
			}
			rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
			vv := vclock.Version{}
			for _, s := range sites {
				vv[s] = ref.Digest[id][s]
			}
			m.Digest[id] = vv
		}
		if got, _ := m.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: syncReq bytes depend on map insertion order", trial)
		}
		rows := digestResp{}
		for _, src := range refRows.Deltas {
			row := *src
			row.Fields = map[string]string{}
			keys := []string{"title", "body", "author", "context"}
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			for _, k := range keys {
				row.Fields[k] = src.Fields[k]
			}
			rows.Deltas = append(rows.Deltas, &row)
		}
		if got, _ := rows.AppendBinary(nil); !bytes.Equal(got, wantRows) {
			t.Fatalf("trial %d: digestResp bytes depend on map insertion order", trial)
		}
		// The marks are as canonical as the tree: whatever order its
		// sites first wrote in, it appends them in name order.
		tree := information.NewDigestTree()
		for _, i := range rng.Perm(5) {
			tree.Update(fmt.Sprint("id", i), vclock.Version{string(rune('a' + i)): uint64(i + 1)})
		}
		if got, _ := (digestReq{Marks: wholeMarks(tree.AppendMarks(nil))}).AppendBinary(nil); !bytes.Equal(got, wantReq) {
			t.Fatalf("trial %d: digestReq bytes depend on the order sites first wrote in", trial)
		}
	}
}

// TestBodiesRejectDamage: a body cut anywhere, a count of 2^60 or a uvarint
// past 64 bits at each count, one byte too many, another message's body, or
// JSON are all errors — without a panic and without an allocation sized by
// the bad count.
func TestBodiesRejectDamage(t *testing.T) {
	// Each count, aimed at.
	wiretest.RejectDamage(t, bodyCases(), map[string][]byte{
		"frames":    {tagDigestReq, flagFrames},
		"hw":        {tagDigestReq, flagHW, 1},
		"delta":     {tagDigestReq, flagHW | flagDelta, 2, 1, 0, 0, 0, 0},
		"children":  {tagDigestResp, flagFrames},
		"deltas":    {tagDigestResp, 0},
		"want":      {tagSyncResp},
		"sync rows": {tagSyncResp, 0},
		"digest":    {tagSyncReq},
		"scope":     {tagSyncReq, 0},
		"objects":   {tagPushReq},
		"relations": {tagPushReq, 0},
		"refused":   append([]byte{tagPushResp}, make([]byte, 2*8)...),
	})
}

// TestRetiredDigestBodiesRefused: a digest request or reply as the code
// before marks generations wrote it fails on its first byte — an old peer's
// whole marks are never read as a delta, nor a delta as whole marks — and so
// does a body whose rows spelled their schema, sites or ids, a sync request
// whose digest spelled its ids or whose scope count took eight bytes,
// whatever decoder reads it.
func TestRetiredDigestBodiesRefused(t *testing.T) {
	wiretest.RetiredRefused(t, "testdata/retired-bodies.txt", bodyCases())
	for name, bad := range map[string][]byte{
		"ack of 0":                {tagDigestReq, flagHW | flagAck, 1, 0, 0},
		"base of 0":               {tagDigestReq, flagHW | flagDelta, 1, 0, 0, 0, 0, 0, 0, 0},
		"ack without marks":       {tagDigestReq, flagAck, 1},
		"delta without marks":     {tagDigestResp, flagDelta, 0, 0, 0, 0, 0, 0, 0, 0},
		"full on a request":       {tagDigestReq, flagFull},
		"whole marks not minimal": {tagDigestReq, flagHW, 1, 1, 1, 'a', 0x81, 0},
	} {
		var req digestReq
		var resp digestResp
		if req.UnmarshalBinary(bad) == nil && resp.UnmarshalBinary(bad) == nil {
			t.Errorf("%s: decoded %x", name, bad)
		}
	}
}

// tappedPair is two manual-round replicas whose every outbound frame is
// recorded, so a test can read the bodies a real exchange put on the wire.
type tappedPair struct {
	*fixture
	frames []tappedFrame
	// rewrite, if set, may change an outbound frame before it is sent.
	rewrite func(*channel.Frame)
}

type tappedFrame struct {
	from, to netsim.Address
	kind     string
	method   string
	body     []byte
}

func newTappedPair(tb testing.TB) *tappedPair {
	tb.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(7))
	registry := information.NewSchemaRegistry()
	if err := registry.Register(information.Schema{Name: "doc", Fields: []information.Field{
		{Name: "title", Type: information.FieldText, Required: true},
		{Name: "body", Type: information.FieldText},
	}}); err != nil {
		tb.Fatal(err)
	}
	p := &tappedPair{fixture: &fixture{clk: clk, net: net}}
	tap := channel.WithInterceptor(func(f *channel.Frame) error {
		if f.Dir == channel.Outbound {
			if p.rewrite != nil {
				p.rewrite(f)
			}
			method, _ := f.Env.Header("method")
			p.frames = append(p.frames, tappedFrame{from: f.Local, to: f.Remote, kind: f.Env.Kind,
				method: method, body: bytes.Clone(f.Env.Body)})
		}
		return nil
	})
	ids := id.New()
	for i := 0; i < 2; i++ {
		site := fmt.Sprintf("s%d", i)
		sp := information.NewSpace(registry, nil, clk, information.WithSite(site), information.WithIDs(ids))
		ep := rpc.NewEndpoint(net.MustAddNode(netsim.Address("repl-"+site)), clk, rpc.WithIDs(ids), rpc.WithChannel(tap))
		p.spaces = append(p.spaces, sp)
		p.reps = append(p.reps, New(ep, clk, sp))
	}
	p.reps[0].AddPeer(p.reps[1].Addr())
	p.reps[1].AddPeer(p.reps[0].Addr())
	return p
}

// divergentRound seeds the pair with n converged rows, then gives s0 three
// updates of cold rows and relays a later s0 write to s1 ahead of them, so
// s1's mark hides the three; it runs the s0 round that repairs them: every
// message type of the protocol is on the wire at least once. It returns
// s0's stats before that round.
func (p *tappedPair) divergentRound(tb testing.TB, n int) Stats {
	tb.Helper()
	ids := make([]string, n)
	for i := range ids {
		obj, err := p.spaces[0].Put("prinz", "doc", map[string]string{"title": fmt.Sprintf("doc %d", i)})
		if err != nil {
			tb.Fatal(err)
		}
		ids[i] = obj.ID
	}
	p.reps[0].SyncNow()
	p.clk.RunUntilIdle()
	for i := 1; i <= 3; i++ {
		p.update(tb, 0, ids[i*7], "cold")
	}
	p.relayAhead(tb, ids[0])
	before := p.reps[0].Stats()
	p.frames = nil
	p.reps[0].SyncNow()
	p.clk.RunUntilIdle()
	if got := p.spaces[1].Len(); got != n {
		tb.Fatalf("s1 holds %d rows, want %d", got, n)
	}
	return before
}

// digestSections sums the encoded marks, tree-frame, children, digest and
// want sections of the bodies s0's exchanges put on the wire, both
// directions, by kind into a Stats' byte counters — read off the bodies
// themselves (the marks are what is left of a body once its tag, flags,
// frames and rows are taken away), not by the yardsticks that feed the
// counters.
func (p *tappedPair) digestSections(tb testing.TB) (got Stats, methods map[string]int) {
	tb.Helper()
	s0 := p.reps[0].Addr()
	methods = map[string]int{}
	for _, f := range p.frames {
		request := f.kind == "rpc.req" && f.from == s0
		reply := f.kind == "rpc.rep" && f.to == s0
		if !request && !reply {
			continue // s1's own rounds
		}
		methods[f.method]++
		var err error
		switch {
		case f.method == MethodDigest && request:
			var m digestReq
			err = wire.DecodeBody(f.body, &m)
			got.FrameBytes += int64(len(m.Frames))
			got.MarksBytes += int64(len(f.body) - 2 - len(m.Frames))
		case f.method == MethodDigest:
			var m digestResp
			err = wire.DecodeBody(f.body, &m)
			got.ChildrenBytes += int64(len(m.Children))
			rows := len(information.AppendWireObjects(nil, m.Deltas))
			got.MarksBytes += int64(len(f.body) - 2 - len(m.Children) - rows)
		case f.method == MethodSync && request:
			var m syncReq
			err = wire.DecodeBody(f.body, &m)
			got.WantBytes += int64(len(appendDigest(nil, m.Digest)))
		case f.method == MethodSync:
			var m syncResp
			err = wire.DecodeBody(f.body, &m)
			got.WantBytes += int64(len(information.AppendWireIDs(nil, m.Want)))
		}
		if err != nil {
			tb.Fatalf("%s %s body: %v", f.method, f.kind, err)
		}
	}
	got.DigestBytes = got.MarksBytes + got.FrameBytes + got.ChildrenBytes + got.WantBytes
	return got, methods
}

// bytesSince is the digest byte counters' movement from before to after.
func bytesSince(before, after Stats) Stats {
	return Stats{
		DigestBytes:   after.DigestBytes - before.DigestBytes,
		MarksBytes:    after.MarksBytes - before.MarksBytes,
		FrameBytes:    after.FrameBytes - before.FrameBytes,
		ChildrenBytes: after.ChildrenBytes - before.ChildrenBytes,
		WantBytes:     after.WantBytes - before.WantBytes,
	}
}

// TestDigestBytesAreEncodedBytes: Stats.DigestBytes is not an estimate —
// over a converged round and over a round repairing three updates a
// relayed later write hid from the marks, it equals the summed lengths of
// the frame, children, high-water, digest and want sections actually
// encoded into the bodies. It also holds the negotiation to its byte
// budget, so a layout that grows fails here.
func TestDigestBytesAreEncodedBytes(t *testing.T) {
	p := newTappedPair(t)
	before := p.divergentRound(t, 400)
	after := p.reps[0].Stats()
	sections, methods := p.digestSections(t)
	if methods[MethodSync] == 0 || methods[MethodPush] == 0 || after.DescentCalls == before.DescentCalls {
		t.Fatalf("the divergent round did not descend, sync and push: %v, stats %+v", methods, after)
	}
	if got := bytesSince(before, after); got != sections || after.LastRoundDigestBytes != int(sections.DigestBytes) {
		t.Fatalf("divergent round: the byte counters moved by %+v (last round %d), encoded sections are %+v",
			got, after.LastRoundDigestBytes, sections)
	}
	// The byte budget on both sides, exact: a layout that grows fails
	// here, not only on the benchmark. Each marks section carries its
	// generation, and a request the generation of the peer's it holds;
	// the scoped sync's digest and want-list say their Space-minted ids
	// by their parts, behind uvarint counts.
	if after.LastRoundDigestBytes != 1141 || after.DigestBytes != 1192 || p.reps[1].Stats().DigestBytes != 50 {
		t.Fatalf("digest bytes over budget: s0 divergent round %d (want 1141), s0 total %d (want 1192), s1 total %d (want 50)",
			after.LastRoundDigestBytes, after.DigestBytes, p.reps[1].Stats().DigestBytes)
	}

	before = after
	p.frames = nil
	p.reps[0].SyncNow()
	p.clk.RunUntilIdle()
	after = p.reps[0].Stats()
	sections, _ = p.digestSections(t)
	if after.ConvergedRoots != before.ConvergedRoots+1 {
		t.Fatalf("second round was not a converged one: %+v", after)
	}
	if got := bytesSince(before, after); got != sections || sections.DigestBytes == 0 {
		t.Fatalf("converged round: the byte counters moved by %+v, encoded sections are %+v", got, sections)
	}
	// One root frame and one single-site marks section out, whole (a delta
	// of one site is no shorter), with its generation and the generation
	// of s1's marks s0 holds; a matching reply carries neither children
	// nor marks.
	if want := 17 + 2 + len(p.spaces[0].Tree().AppendMarks(nil)); sections.DigestBytes != int64(want) || len(p.spaces[0].Tree().HighWater()) != 1 {
		t.Fatalf("converged round exchanged %d digest bytes, want %d", sections.DigestBytes, want)
	}
	replies := 0
	for _, f := range p.frames {
		if f.kind == "rpc.rep" && f.method == MethodDigest && f.to == p.reps[0].Addr() {
			replies++
			var m digestResp
			if err := wire.DecodeBody(f.body, &m); err != nil || !m.Match || m.Marks.Section != nil || f.body[1]&flagHW != 0 {
				t.Fatalf("the converged round's reply carries a high-water section or no match (%v): %x", err, f.body)
			}
		}
	}
	if replies != 1 {
		t.Fatalf("the converged round drew %d digest replies, want 1", replies)
	}
}

// FuzzReplicaBodies: whatever bytes arrive, a decoder either refuses them
// or yields a message that encodes and decodes back to itself.
func FuzzReplicaBodies(f *testing.F) {
	p := newTappedPair(f)
	p.divergentRound(f, 120)
	seen := map[byte]bool{}
	for _, fr := range p.frames {
		if len(fr.body) > 0 {
			seen[fr.body[0]] = true
			f.Add(fr.body)
		}
	}
	for _, tag := range []byte{tagDigestReq, tagDigestResp, tagSyncReq, tagSyncResp, tagPushReq, tagPushResp} {
		if !seen[tag] {
			f.Fatalf("the seeding round put no %#x body on the wire", tag)
		}
	}
	for _, c := range bodyCases() {
		f.Add(c.Encode(f))
	}
	for _, b := range wiretest.Retired(f, "testdata/retired-bodies.txt") {
		f.Add(b)
	}
	wiretest.Fuzz(f, []wiretest.Case{
		wiretest.Of("digestReq", digestReq{}), wiretest.Of("digestResp", digestResp{}),
		wiretest.Of("syncReq", syncReq{}), wiretest.Of("syncResp", syncResp{}),
		wiretest.Of("pushReq", pushReq{}), wiretest.Of("pushResp", pushResp{}),
	})
}

var benchSink int

// BenchmarkSyncRespCodec prices one scoped-sync reply — 16 rows and a
// 64-id want-list — through the one body entry point, each way.
func BenchmarkSyncRespCodec(b *testing.B) {
	msg := syncResp{Want: benchWant(64), Deltas: benchRows(16)}
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
			var out syncResp
			if err := wire.DecodeBody(body, &out); err != nil {
				b.Fatal(err)
			}
			benchSink += len(out.Deltas)
		}
	})
}

// TestDecodedRowOwnsItsBytes: the rows a push request carries share no byte
// with the body they were read from, which the transport reuses as soon as
// the handler returns.
func TestDecodedRowOwnsItsBytes(t *testing.T) {
	sent := pushReq{Objects: append(benchRows(3), edgeRows()...)}
	body, err := sent.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got pushReq
	if err := got.UnmarshalBinary(body); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xA5
	}
	if !reflect.DeepEqual(got, sent) {
		t.Fatalf("overwriting the body changed the request:\n got %+v\nwant %+v", got, sent)
	}
}

// TestUnknownSchemaIDRefused: a body whose rows name a schema id this
// process has not registered fails to decode with
// information.ErrUnknownSchema, whichever message carries the rows.
func TestUnknownSchemaIDRefused(t *testing.T) {
	known := binary.BigEndian.AppendUint32([]byte{0}, 0x48d68860) // the marker and the interchange id
	for _, c := range []wiretest.Case{
		wiretest.Of("digestResp", digestResp{Marks: wholeMarks(marksOf(nil)), Deltas: benchRows(2)}),
		wiretest.Of("syncResp", syncResp{Want: benchWant(2), Deltas: benchRows(2)}),
		wiretest.Of("pushReq", pushReq{Objects: benchRows(2)}),
	} {
		body := c.Encode(t)
		if bytes.Count(body, known) != 2 {
			t.Fatalf("%s: its rows do not name the interchange schema by id: %x", c.Name, body)
		}
		body = bytes.Replace(body, known, []byte{0, 0xde, 0xad, 0xbe, 0xef}, 1)
		if _, err := c.Decoded(body); !errors.Is(err, information.ErrUnknownSchema) {
			t.Errorf("%s: a row naming an unregistered schema: %v, want information.ErrUnknownSchema", c.Name, err)
		}
	}
}

// pastRoster is a roster-form site naming entry vclock.MaxRoster: past any
// roster a process can hold.
var pastRoster = wire.AppendUvarint(nil, vclock.MaxRoster+1)

// TestUnknownSiteIndexRefused: a body whose row names its writer site, or a
// site of its vector, by a roster index this process never enrolled fails
// to decode with vclock.ErrUnknownSite, whichever message carries the row;
// a round whose reply carries one counts it in ApplyFailures, and so does
// the replica a push carrying one is refused at.
func TestUnknownSiteIndexRefused(t *testing.T) {
	owner := wire.AppendString(nil, "u00001") // benchRow(1)'s owner; s000, entry 0, writes
	writer := slices.Concat(owner, pastRoster, []byte{1, 1, 1})
	vector := slices.Concat(owner, []byte{1, 1}, pastRoster, []byte{1})
	for _, c := range []wiretest.Case{
		wiretest.Of("digestResp", digestResp{Marks: wholeMarks(marksOf(nil)), Deltas: benchRows(2)}),
		wiretest.Of("syncResp", syncResp{Want: benchWant(2), Deltas: benchRows(2)}),
		wiretest.Of("pushReq", pushReq{Objects: benchRows(2)}),
	} {
		body := c.Encode(t)
		at := slices.Concat(owner, []byte{1, 1, 1, 1})
		if !bytes.Contains(body, at) {
			t.Fatalf("%s: its row does not name s000 by its roster entry: %x", c.Name, body)
		}
		for name, bad := range map[string][]byte{"writer site": writer, "vector site": vector} {
			if _, err := c.Decoded(bytes.Replace(body, at, bad, 1)); !errors.Is(err, vclock.ErrUnknownSite) {
				t.Errorf("%s: a %s past the roster: %v, want vclock.ErrUnknownSite", c.Name, name, err)
			}
		}
	}

	// s1 answers s0's opening pass with a row whose writer site is past
	// s0's roster: s0's round fails, and counts the reply it could not
	// apply.
	p := newTappedPair(t)
	if _, err := p.spaces[1].Put("prinz", "doc", map[string]string{"title": "t"}); err != nil {
		t.Fatal(err)
	}
	owner = wire.AppendString(nil, "prinz")
	at := vclock.AppendSite(bytes.Clone(owner), "s1")
	p.rewrite = func(f *channel.Frame) {
		if f.Env.Kind == "rpc.rep" && bytes.Contains(f.Env.Body, at) {
			f.Env.Body = bytes.Replace(f.Env.Body, at, slices.Concat(owner, pastRoster), 1)
		}
	}
	p.reps[0].SyncNow()
	p.clk.RunUntilIdle()
	if st := p.reps[0].Stats(); st.ApplyFailures != 1 || st.PeerFailures != 1 || p.spaces[0].Len() != 0 {
		t.Fatalf("a reply naming a site past the roster: %d apply failures, %d peer failures, %d rows; want 1, 1, 0",
			st.ApplyFailures, st.PeerFailures, p.spaces[0].Len())
	}

	// s0 hands a write off to s1 in a push whose row names s0 past s1's
	// roster: s1 refuses the body before its handler runs, counts it, and
	// answers s0 with an error, so s0 counts nothing pushed.
	p = newTappedPair(t)
	obj, err := p.spaces[0].Put("prinz", "doc", map[string]string{"title": "t"})
	if err != nil {
		t.Fatal(err)
	}
	at = vclock.AppendSite(bytes.Clone(owner), "s0")
	p.rewrite = func(f *channel.Frame) {
		if method, _ := f.Env.Header("method"); f.Env.Kind == "rpc.req" && method == MethodPush && bytes.Contains(f.Env.Body, at) {
			f.Env.Body = bytes.Replace(f.Env.Body, at, slices.Concat(owner, pastRoster), 1)
		}
	}
	p.reps[0].HandOff(p.reps[1].Addr(), obj)
	p.clk.RunUntilIdle()
	if st, pushed := p.reps[1].Stats(), p.reps[0].Stats().Pushed; st.ApplyFailures != 1 || p.spaces[1].Len() != 0 || pushed != 0 {
		t.Fatalf("a push naming a site past the roster: %d apply failures and %d rows at the receiver, %d rows pushed; want 1, 0, 0",
			st.ApplyFailures, p.spaces[1].Len(), pushed)
	}
}
