package replica

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
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

func benchDigest(n int) map[string]vclock.Version {
	d := make(map[string]vclock.Version, n)
	for i := 0; i < n; i++ {
		d[fmt.Sprintf("obj%06d", i)] = vclock.Version{"s000": uint64(i + 1), fmt.Sprintf("s%03d", i%16): 2}
	}
	return d
}

func benchWant(n int) []string {
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("obj%06d", 3*i)
	}
	return want
}

// childrenSection builds a reply's children section: per parent path, the
// path and MerkleFanout made-up child hashes.
func childrenSection(parents ...uint64) []byte {
	b := wire.AppendUint64(nil, uint64(len(parents)))
	for _, path := range parents {
		b = wire.AppendUint64(b, path)
		for j := range information.MerkleFanout {
			b = wire.AppendUint64(b, uint64(j+1)*0x9e3779b97f4a7c15^path)
		}
	}
	return b
}

// bodyCases covers every message type: on the benchmark's fixture rows,
// on the edge rows, and at the corners of each message's own shape.
func bodyCases() []wiretest.Case {
	root := wire.AppendTreeFrames(nil, []wire.TreeFrame{{Path: wire.PackTreePath(0, 0), Hash: 0xfeedface}})
	frames := make([]wire.TreeFrame, information.MerkleFanout)
	for i := range frames {
		frames[i] = wire.TreeFrame{Path: wire.PackTreePath(1, uint32(i)), Hash: uint64(i) * 0x9e3779b97f4a7c15}
	}
	hw := map[string]uint64{"s000": 41, "s001": 7, "köln": 1 << 40}
	return append([]wiretest.Case{
		wiretest.Of("digestReq/opening", digestReq{Site: "s000", Frames: root, HW: hw}),
		wiretest.Of("digestReq/empty replica", digestReq{Site: "s001", Frames: root, HW: map[string]uint64{}}),
		wiretest.Of("digestReq/follow-up", digestReq{Site: "s000", Frames: wire.AppendTreeFrames(nil, frames)}),
		wiretest.Of("digestReq/zero", digestReq{}),
		wiretest.Of("digestResp/mismatch rows", digestResp{Site: "s001", Children: childrenSection(0), HW: map[string]uint64{}, Deltas: benchRows(16)}),
		wiretest.Of("digestResp/edge rows", digestResp{Deltas: edgeRows()}),
		wiretest.Of("syncReq", syncReq{Site: "s000", Digest: benchDigest(64), Scope: []uint32{0, 17, 4095}}),
		wiretest.Of("syncReq/no digest", syncReq{Site: "s000", Scope: []uint32{9}}),
		wiretest.Of("syncReq/zero", syncReq{}),
		wiretest.Of("syncResp", syncResp{Site: "s001", Want: benchWant(64), Deltas: benchRows(16)}),
		wiretest.Of("syncResp/edge rows", syncResp{Site: "köln", Want: []string{"nil-vv", "obj-ünï-日本"}, Deltas: edgeRows()}),
		wiretest.Of("syncResp/zero", syncResp{}),
		wiretest.Of("pushReq", pushReq{Site: "s000", Objects: benchRows(3)}),
		wiretest.Of("pushReq/migration", pushReq{Site: "s000", Objects: edgeRows(), Relations: []wireRelation{
			{From: "nil-vv", Kind: string(information.RelDependsOn), To: "wide-vv"}, {From: "obj-ünï-日本", Kind: "", To: ""}}}),
		wiretest.Of("pushResp", pushResp{Applied: 3, Conflicts: 1, Refused: []string{"obj000002", "obj-ünï-日本"}}),
		wiretest.Of("pushResp/zero", pushResp{}),
	}, goldenCases()...)
}

// goldenCases are the replies whose layout is pinned byte for byte: the
// children section, the marks only on a mismatch, the want-list.
func goldenCases() []wiretest.Case {
	return []wiretest.Case{
		wiretest.Of("digestResp/match", digestResp{Site: "s001", Match: true}),
		wiretest.Of("digestResp/mismatch", digestResp{Site: "s001", Children: childrenSection(wire.PackTreePath(0, 0)), HW: map[string]uint64{"s000": 41}}),
		wiretest.Of("digestResp/descent", digestResp{Site: "s001", Children: childrenSection(wire.PackTreePath(1, 3), wire.PackTreePath(2, 255))}),
		wiretest.Of("syncResp/want", syncResp{Site: "s001", Want: []string{"obj000003", "obj000017"}}),
	}
}

func TestBodiesGolden(t *testing.T) {
	wiretest.Golden(t, goldenCases(), map[string]string{
		"digestResp/match":    "870100000004733030310000000000000000",
		"digestResp/mismatch": "87060000000473303031000000000000000100000000000000009e3779b97f4a7c153c6ef372fe94f82adaa66d2c7ddf743f78dde6e5fd29f0541715609f7c746c69b54cda58fbbee87e538454127b096493f1bbcdcbfa53e0a88ff34785799e5cbd2e2ac13ef8e8d8d2cc623af8783354e76a99b4b1f77dd0fc08d12e6b76c84d11a708a824f612c926454021de755d453be3779b97f4a7c1500000000000000001000000047330303000000000000000290000000000000000",
		"digestResp/descent":  "87020000000473303031000000000000000200000001000000039e3779b87f4a7c163c6ef373fe94f829daa66d2d7ddf743c78dde6e4fd29f0571715609e7c746c6ab54cda59fbbee87d538454137b096490f1bbcdcafa53e0ab8ff34784799e5cbe2e2ac13ff8e8d8d1cc623af9783354e46a99b4b0f77dd0ff08d12e6a76c84d12a708a825f612c925454021df755d4538e3779b96f4a7c15300000002000000ff9e3779bb7f4a7cea3c6ef370fe94f8d5daa66d2e7ddf74c078dde6e7fd29f0ab1715609d7c746c96b54cda5afbbee881538454107b09646cf1bbcdc9fa53e0578ff34787799e5c422e2ac13cf8e8d82dcc623afa783354186a99b4b3f77dd00308d12e6976c84deea708a826f612c9d9454021dc755d45c4e3779b95f4a7c1af0000000000000000",
		"syncResp/want":       "8800000004733030310000000000000002000000096f626a303030303033000000096f626a3030303031370000000000000000",
	})
}

func TestBodiesRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, bodyCases())
	// The distinction the opening call rests on, spelled out: an empty HW is
	// not an absent one.
	var opening, followUp digestReq
	if err := opening.UnmarshalBinary(bodyCases()[1].Encode(t)); err != nil || opening.HW == nil || len(opening.HW) != 0 {
		t.Fatalf("empty HW decoded as %#v (%v), want an empty non-nil map", opening.HW, err)
	}
	if err := followUp.UnmarshalBinary(bodyCases()[2].Encode(t)); err != nil || followUp.HW != nil {
		t.Fatalf("absent HW decoded as %#v (%v), want nil", followUp.HW, err)
	}
}

// TestBodiesCanonical: equal messages encode to equal bytes whatever
// order their maps were filled in — what keeps a workload's byte counts
// and fingerprint a function of the seed.
func TestBodiesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ref := syncReq{Site: "s001", Digest: benchDigest(64)}
	want, _ := ref.AppendBinary(nil)
	refRows := digestResp{Site: "s001", Deltas: benchRows(16)}
	wantRows, _ := refRows.AppendBinary(nil)
	wantReq, _ := digestReq{Site: "s000", HW: map[string]uint64{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}}.AppendBinary(nil)
	for trial := 0; trial < 10; trial++ {
		m := syncReq{Site: "s001", Digest: map[string]vclock.Version{}}
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
		rows := digestResp{Site: "s001"}
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
		hw := map[string]uint64{}
		for _, i := range rng.Perm(5) {
			hw[string(rune('a'+i))] = uint64(i + 1)
		}
		if got, _ := (digestReq{Site: "s000", HW: hw}).AppendBinary(nil); !bytes.Equal(got, wantReq) {
			t.Fatalf("trial %d: digestReq bytes depend on map insertion order", trial)
		}
	}
}

// TestBodiesRejectDamage: a body cut anywhere, a count of 2^60 anywhere,
// one byte too many, another message's body, or JSON are all errors —
// without a panic and without an allocation sized by the bad count.
func TestBodiesRejectDamage(t *testing.T) {
	// Each count, aimed at.
	wiretest.RejectDamage(t, bodyCases(), map[string][]byte{
		"frames":    append([]byte{tagDigestReq, flagFrames, 0, 0, 0, 0}, wire.AppendUint64(nil, 1<<60)...),
		"hw":        append([]byte{tagDigestReq, flagHW, 0, 0, 0, 0}, wire.AppendUint64(nil, 1<<60)...),
		"children":  append([]byte{tagDigestResp, flagFrames, 0, 0, 0, 0}, wire.AppendUint64(nil, 1<<60)...),
		"deltas":    append([]byte{tagDigestResp, 0, 0, 0, 0, 0}, wire.AppendUint64(nil, 1<<60)...),
		"want":      append([]byte{tagSyncResp, 0, 0, 0, 0}, wire.AppendUint64(nil, 1<<60)...),
		"digest":    append([]byte{tagSyncReq, 0, 0, 0, 0}, wire.AppendUint64(nil, 1<<60)...),
		"scope":     append(append([]byte{tagSyncReq, 0, 0, 0, 0}, wire.AppendUint64(nil, 0)...), wire.AppendUint64(nil, 1<<60)...),
		"objects":   append([]byte{tagPushReq, 0, 0, 0, 0}, wire.AppendUint64(nil, 1<<60)...),
		"relations": append(append([]byte{tagPushReq, 0, 0, 0, 0}, wire.AppendUint64(nil, 0)...), wire.AppendUint64(nil, 1<<60)...),
		"refused":   append(append(append([]byte{tagPushResp}, wire.AppendUint64(nil, 0)...), wire.AppendUint64(nil, 0)...), wire.AppendUint64(nil, 1<<60)...),
	})
}

// tappedPair is two manual-round replicas whose every outbound frame is
// recorded, so a test can read the bodies a real exchange put on the wire.
type tappedPair struct {
	*fixture
	frames []tappedFrame
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
	}}); err != nil {
		tb.Fatal(err)
	}
	p := &tappedPair{fixture: &fixture{clk: clk, net: net}}
	tap := channel.WithInterceptor(func(f *channel.Frame) error {
		if f.Dir == channel.Outbound {
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
	p.reps[0].AddPeerNamed("s1", p.reps[1].Addr())
	p.reps[1].AddPeerNamed("s0", p.reps[0].Addr())
	return p
}

// divergentRound seeds the pair with n converged rows, then gives s0 three
// updates its high-water mark hides, and runs the s0 round that repairs
// them: every message type of the protocol is on the wire at least once.
// It returns s0's stats before that round.
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
	version := uint64(1)
	for i := 0; i < 6; i++ { // raise s0's mark well past every other row's counter
		upd, err := p.spaces[0].Update("prinz", ids[0], version, map[string]string{"title": fmt.Sprintf("hot v%d", i)})
		if err != nil {
			tb.Fatal(err)
		}
		version = upd.Version
	}
	p.reps[0].SyncNow()
	p.clk.RunUntilIdle()
	// Three first updates of cold rows: counter 2, far below s0's mark.
	for i := 1; i <= 3; i++ {
		if _, err := p.spaces[0].Update("prinz", ids[i*7], 1, map[string]string{"title": "cold"}); err != nil {
			tb.Fatal(err)
		}
	}
	before := p.reps[0].Stats()
	p.frames = nil
	p.reps[0].SyncNow()
	p.clk.RunUntilIdle()
	if got := p.spaces[1].Len(); got != n {
		tb.Fatalf("s1 holds %d rows, want %d", got, n)
	}
	return before
}

// digestSections sums the encoded tree-frame, high-water and digest
// sections of the bodies s0's exchanges put on the wire, both directions —
// re-encoded section by section, not by the yardsticks that feed the
// counter.
func (p *tappedPair) digestSections(tb testing.TB) (total int, methods map[string]int) {
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
			total += len(m.Frames)
			if m.HW != nil {
				total += len(appendHW(nil, m.HW))
			}
		case f.method == MethodDigest:
			var m digestResp
			err = wire.DecodeBody(f.body, &m)
			total += len(m.Children)
			if m.HW != nil {
				total += len(appendHW(nil, m.HW))
			}
		case f.method == MethodSync && request:
			var m syncReq
			err = wire.DecodeBody(f.body, &m)
			total += len(appendDigest(nil, m.Digest))
		case f.method == MethodSync:
			var m syncResp
			err = wire.DecodeBody(f.body, &m)
			total += len(wire.AppendStrings(nil, m.Want))
		}
		if err != nil {
			tb.Fatalf("%s %s body: %v", f.method, f.kind, err)
		}
	}
	return total, methods
}

// TestDigestBytesAreEncodedBytes: Stats.DigestBytes is not an estimate —
// over a converged round and over a round repairing three hidden updates
// it equals the summed lengths of the frame, children, high-water, digest
// and want sections actually encoded into the bodies. It also holds the
// negotiation to its byte budget, so a layout that grows fails here.
func TestDigestBytesAreEncodedBytes(t *testing.T) {
	p := newTappedPair(t)
	before := p.divergentRound(t, 400)
	after := p.reps[0].Stats()
	sections, methods := p.digestSections(t)
	if methods[MethodSync] == 0 || methods[MethodPush] == 0 || after.DescentCalls == before.DescentCalls {
		t.Fatalf("the divergent round did not descend, sync and push: %v, stats %+v", methods, after)
	}
	if got := after.DigestBytes - before.DigestBytes; got != int64(sections) || after.LastRoundDigestBytes != sections {
		t.Fatalf("divergent round: DigestBytes moved by %d (last round %d), encoded sections are %d bytes",
			got, after.LastRoundDigestBytes, sections)
	}
	// The byte budget on both sides, exact: a layout that grows fails
	// here, not only on the benchmark.
	if after.LastRoundDigestBytes != 1356 || after.DigestBytes != 1814 || p.reps[1].Stats().DigestBytes != 138 {
		t.Fatalf("digest bytes over budget: s0 divergent round %d (want 1356), s0 total %d (want 1814), s1 total %d (want 138)",
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
	if got := after.DigestBytes - before.DigestBytes; got != int64(sections) || sections == 0 {
		t.Fatalf("converged round: DigestBytes moved by %d, encoded sections are %d bytes", got, sections)
	}
	// One root frame and one single-site high-water map out; a matching
	// reply carries neither children nor marks.
	if want := 24 + hwBytes(map[string]uint64{"s0": 0}); sections != want {
		t.Fatalf("converged round exchanged %d digest bytes, want %d", sections, want)
	}
	replies := 0
	for _, f := range p.frames {
		if f.kind == "rpc.rep" && f.method == MethodDigest && f.to == p.reps[0].Addr() {
			replies++
			var m digestResp
			if err := wire.DecodeBody(f.body, &m); err != nil || !m.Match || m.HW != nil || f.body[1]&flagHW != 0 {
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
	msg := syncResp{Site: "s001", Want: benchWant(64), Deltas: benchRows(16)}
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
	sent := pushReq{Site: "s000", Objects: append(benchRows(3), edgeRows()...)}
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
