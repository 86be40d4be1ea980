package replica

import (
	"bytes"
	"fmt"
	"testing"

	"mocca/internal/channel"
	"mocca/internal/id"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// marksPair is two manual-round replicas, s0 and s1, whose marks travel as
// deltas: both hold a row written at a dozen sites, so a marks section is
// long and a delta short. Every outbound digest frame is recorded, and
// drop, while set, loses the frames it matches.
type marksPair struct {
	*fixture
	ids      *id.Generator
	registry *information.SchemaRegistry
	frames   []tappedFrame
	drop     func(tappedFrame) bool
	writes   int
}

func newMarksPair(t *testing.T) *marksPair {
	t.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(7))
	p := &marksPair{fixture: &fixture{clk: clk, net: net}, ids: id.New(), registry: information.NewSchemaRegistry()}
	if err := p.registry.Register(information.Schema{Name: "doc", Fields: []information.Field{
		{Name: "title", Type: information.FieldText, Required: true},
		{Name: "body", Type: information.FieldText},
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		node := net.MustAddNode(netsim.Address(fmt.Sprintf("repl-s%d", i)))
		p.spaces = append(p.spaces, p.newSpace(i))
		p.reps = append(p.reps, New(p.endpoint(node), clk, p.spaces[i]))
	}
	p.reps[0].AddPeer(p.reps[1].Addr())
	p.reps[1].AddPeer(p.reps[0].Addr())
	return p
}

// newSpace is site i's replica holding the wide row.
func (p *marksPair) newSpace(i int) *information.Space {
	sp := information.NewSpace(p.registry, nil, p.clk, information.WithSite(fmt.Sprintf("s%d", i)), information.WithIDs(p.ids))
	vv := vclock.Version{}
	for w := 0; w < 12; w++ {
		vv[fmt.Sprintf("w%02d", w)] = uint64(100 + w)
	}
	row := &information.Object{ID: "wide", Schema: "doc", Owner: "prinz", Site: "w00",
		Fields: map[string]string{"title": "wide"}, Version: vv.Sum(), VV: vv,
		Created: netsim.DefaultEpoch, Updated: netsim.DefaultEpoch}
	if _, _, err := sp.Adopt(row); err != nil {
		panic(err)
	}
	return sp
}

// endpoint is a replication endpoint over node whose digest frames the
// pair records and may drop.
func (p *marksPair) endpoint(node *netsim.Node) *rpc.Endpoint {
	tap := channel.WithInterceptor(func(f *channel.Frame) error {
		method, _ := f.Env.Header("method")
		if f.Dir != channel.Outbound || method != MethodDigest {
			return nil
		}
		fr := tappedFrame{from: f.Local, to: f.Remote, kind: f.Env.Kind, method: method, body: bytes.Clone(f.Env.Body)}
		if p.drop != nil && p.drop(fr) {
			return channel.ErrDropFrame
		}
		p.frames = append(p.frames, fr)
		return nil
	})
	return rpc.NewEndpoint(node, p.clk, rpc.WithIDs(p.ids), rpc.WithChannel(tap))
}

// restart replaces site i's replicator with a new one over a new endpoint
// on the same node, as a site restart does, over space: what the site
// recovered. The new replicator holds no record of its peer's marks.
func (p *marksPair) restart(i int, space *information.Space) {
	p.reps[i].ep.Close()
	node, _ := p.net.Node(p.reps[i].Addr())
	p.spaces[i] = space
	p.reps[i] = New(p.endpoint(node), p.clk, space)
	p.reps[i].AddPeer(p.reps[1-i].Addr())
}

// write puts a fresh row at site i.
func (p *marksPair) write(t *testing.T, i int) {
	t.Helper()
	p.writes++
	if _, err := p.spaces[i].Put("prinz", "doc", map[string]string{"title": fmt.Sprint("row ", p.writes)}); err != nil {
		t.Fatal(err)
	}
}

// round runs one round of site i's against the other and returns the
// digest requests it sent.
func (p *marksPair) round(i int) (requests int) {
	p.frames = nil
	p.reps[i].SyncNow()
	p.clk.RunUntilIdle()
	for _, f := range p.frames {
		if f.kind == "rpc.req" && f.from == p.reps[i].Addr() {
			requests++
		}
	}
	return requests
}

// warm runs rounds both ways over writes at both sites until each side's
// marks to the other go as deltas.
func (p *marksPair) warm(t *testing.T) {
	t.Helper()
	for k := 0; k < 3; k++ {
		for i := range p.reps {
			p.write(t, i)
			p.round(i)
		}
	}
	p.converged(t)
	for i, r := range p.reps {
		if r.Stats().MarksFallbacks != 0 {
			t.Fatalf("s%d fell back while warming: %+v", i, r.Stats())
		}
	}
	if p.lastRequestMarks(t, 0).Base == 0 || p.lastRequestMarks(t, 1).Base == 0 {
		t.Fatal("the warmed pair still sends whole marks")
	}
}

// lastRequestMarks runs a converged round of site i's and returns the
// marks its request carried.
func (p *marksPair) lastRequestMarks(t *testing.T, i int) marksMsg {
	t.Helper()
	p.round(i)
	for j := len(p.frames) - 1; j >= 0; j-- {
		if f := p.frames[j]; f.kind == "rpc.req" && f.from == p.reps[i].Addr() {
			var m digestReq
			if err := wire.DecodeBody(f.body, &m); err != nil {
				t.Fatal(err)
			}
			return m.Marks
		}
	}
	t.Fatalf("s%d sent no digest request", i)
	return marksMsg{}
}

// converged fails unless the two replicas hold the same rows.
func (p *marksPair) converged(t *testing.T) {
	t.Helper()
	if a, b := p.spaces[0].Tree().Root(), p.spaces[1].Tree().Root(); a != b || p.spaces[0].Len() != p.spaces[1].Len() {
		t.Fatalf("replicas differ: %d rows (root %x) against %d (root %x)", p.spaces[0].Len(), a, p.spaces[1].Len(), b)
	}
}

// noDescent fails if either side descended since before.
func (p *marksPair) noDescent(t *testing.T, before [2]Stats) {
	t.Helper()
	for i, r := range p.reps {
		if got := r.Stats().DescentCalls; got != before[i].DescentCalls {
			t.Fatalf("s%d descended %d times for a gap the marks name", i, got-before[i].DescentCalls)
		}
	}
}

func (p *marksPair) stats() [2]Stats { return [2]Stats{p.reps[0].Stats(), p.reps[1].Stats()} }

// dropReplies loses s1's next n digest replies to s0.
func (p *marksPair) dropReplies(n int) {
	p.drop = func(f tappedFrame) bool {
		if n > 0 && f.kind == "rpc.rep" && f.to == p.reps[0].Addr() {
			n--
			return true
		}
		return false
	}
}

// TestMarksDeltaAfterLostReplies: a lost reply leaves the responder
// holding a section its caller never saw confirmed. One loss costs
// nothing — the responder still holds the section before it, the caller's
// base — and two in a row cost one whole section: the responder answers
// that it cannot rebuild, and the caller's next pass sends its marks
// whole. Neither descends.
func TestMarksDeltaAfterLostReplies(t *testing.T) {
	p := newMarksPair(t)
	p.warm(t)
	before := p.stats()

	p.dropReplies(1)
	p.round(0) // its exchange times out
	p.write(t, 1)
	if got := p.lastRequestMarks(t, 0); got.Base == 0 {
		t.Fatalf("after one lost reply s0's marks went whole: %+v", got)
	}
	p.converged(t)
	if got := p.reps[0].Stats().MarksFallbacks; got != 0 {
		t.Fatalf("one lost reply cost %d whole sections", got)
	}

	p.dropReplies(2)
	p.round(0)
	p.round(0)
	p.write(t, 1)
	p.round(0)
	p.converged(t)
	if got := p.reps[0].Stats().MarksFallbacks; got != 1 {
		t.Fatalf("two lost replies cost %d whole sections, want 1", got)
	}
	p.noDescent(t, before)
}

// TestMarksDeltaAcrossRemovePeer: view churn drops a peer from the sync set
// and adds it back. Each side's record of the marks it exchanges with the
// other outlives that — a replication address names a site, not an
// incarnation — trimmed to the sections a return needs, so the next
// round's marks go as deltas both ways, with no whole section and no
// fallback.
func TestMarksDeltaAcrossRemovePeer(t *testing.T) {
	p := newMarksPair(t)
	p.warm(t)
	peer := p.reps[1].Addr()
	if !p.reps[0].RemovePeer(peer) {
		t.Fatal("RemovePeer = false for a live peer")
	}
	rec := p.reps[0].marks[peer]
	kept := 0
	for _, s := range rec.sent {
		if s.section != nil {
			kept++
		}
	}
	if kept > 2 || rec.held[1].section != nil || rec.spare != nil || rec.delta != nil {
		t.Fatalf("the removed peer's record keeps %d sent sections, held %v, spare %d B, delta %d B",
			kept, rec.held[1].gen, len(rec.spare), len(rec.delta))
	}
	p.reps[0].AddPeer(peer)
	p.write(t, 0)
	p.write(t, 1)
	p.round(0)
	p.converged(t)
	for _, f := range p.frames {
		if f.kind != "rpc.req" && f.kind != "rpc.rep" {
			continue
		}
		var req digestReq
		var resp digestResp
		var marks marksMsg
		switch {
		case wire.DecodeBody(f.body, &req) == nil:
			marks = req.Marks
		case wire.DecodeBody(f.body, &resp) == nil:
			marks = resp.Marks
		default:
			continue
		}
		if marks.Section != nil && marks.Base == 0 {
			t.Fatalf("%s %s → %s carried whole marks after the peer came back", f.kind, f.from, f.to)
		}
	}
	for i, r := range p.reps {
		if got := r.Stats().MarksFallbacks; got != 0 {
			t.Fatalf("s%d fell back %d times after its peer came back", i, got)
		}
	}
}

// TestMarksDeltaAfterResponderRestart: a restarted responder holds none of
// its caller's marks. It answers the caller's delta as if it carried no
// marks — its own marks and a request for whole ones — and the caller's
// next pass carries them whole, which pulls the write the responder made.
func TestMarksDeltaAfterResponderRestart(t *testing.T) {
	p := newMarksPair(t)
	p.warm(t)
	before := p.stats()

	p.restart(1, p.spaces[1])
	p.write(t, 0)
	p.write(t, 1)
	if passes := p.round(0); passes != 3 {
		t.Fatalf("the round after the restart took %d passes, want 3 (refused, whole, converged)", passes)
	}
	p.converged(t)
	if got := p.reps[0].Stats().MarksFallbacks; got != 1 {
		t.Fatalf("s0 sent %d whole sections after s1's restart, want 1", got)
	}
	p.noDescent(t, before)
}

// TestMarksDeltaAfterCallerRestartReusesGenerations: a restarted replica
// numbers its sections from 1 again, so the generation its peer holds
// from before the restart can name a different section now. A delta from
// it fails the peer's check and is refused, never read; the next pass
// goes whole both ways and converges.
func TestMarksDeltaAfterCallerRestartReusesGenerations(t *testing.T) {
	p := newMarksPair(t)
	p.warm(t)
	old := p.reps[0].marks[p.reps[1].Addr()].gen
	held := p.reps[1].marks[p.reps[0].Addr()].held[0].gen
	if held != old {
		t.Fatalf("s1 holds s0's generation %d, s0 sent %d", held, old)
	}
	before := p.stats()

	// s0 restarts with the wide row alone: its own writes are lost, and
	// its first sections to s1 never arrive, so its generations reach the
	// one s1 holds from before.
	p.restart(0, p.newSpace(0))
	for range old {
		p.reps[0].outMarks(p.reps[1].Addr(), p.spaces[0].Tree(), true)
	}
	p.round(1)
	p.converged(t)
	if got := p.reps[1].Stats().MarksFallbacks; got != 1 {
		t.Fatalf("s1 sent %d whole sections after the refused delta, want 1", got)
	}
	p.noDescent(t, before)
}

// TestMarksDeltaLateRequest: a request of a timed-out exchange reaches the
// responder after newer ones. Its ack names a section of the responder's
// the caller no longer holds, and is not taken for the latest; its delta's
// base is gone, and what the responder holds is kept. The responder's own
// next round then opens with a delta its peer can rebuild.
func TestMarksDeltaLateRequest(t *testing.T) {
	p := newMarksPair(t)
	p.warm(t)
	before := p.stats()

	var late []byte
	p.drop = func(f tappedFrame) bool {
		if late == nil && f.kind == "rpc.req" && f.from == p.reps[0].Addr() {
			late = f.body
			return true
		}
		return false
	}
	p.write(t, 1)
	p.round(0) // the request is held back; the exchange times out
	p.drop = nil
	for k := 0; k < 3; k++ {
		p.write(t, 1)
		p.round(0)
	}
	var req digestReq
	if err := wire.DecodeBody(late, &req); err != nil || req.Marks.Ack == 0 {
		t.Fatalf("held-back request: %v, %+v", err, req.Marks)
	}
	if _, err := p.reps[1].serveDigest(p.reps[0].Addr(), req); err != nil {
		t.Fatal(err)
	}

	base := p.reps[1].marks[p.reps[0].Addr()].base
	p.write(t, 1)
	if passes := p.round(1); passes != 2 {
		t.Fatalf("the responder's round after the late request took %d passes, want 2 (push, converged)", passes)
	}
	var opening digestReq
	if err := wire.DecodeBody(p.frames[0].body, &opening); err != nil || p.frames[0].from != p.reps[1].Addr() {
		t.Fatalf("the responder's round opened with %+v (%v)", p.frames[0], err)
	}
	if opening.Marks.Base != base || base == 0 {
		t.Fatalf("the responder's round opened with marks from base %d: the late ack was taken", opening.Marks.Base)
	}
	p.converged(t)
	for i, r := range p.reps {
		if got := r.Stats().MarksFallbacks; got != 0 {
			t.Fatalf("s%d sent %d whole sections after a late request", i, got)
		}
	}
	p.noDescent(t, before)
}
