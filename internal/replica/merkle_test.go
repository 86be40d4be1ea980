package replica

import (
	"errors"
	"fmt"
	"testing"

	"mocca/internal/id"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
)

// seedConverged fills site 0 with n objects and drains the mesh to
// convergence, returning the object ids.
func seedConverged(t *testing.T, f *fixture, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		obj, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": fmt.Sprintf("doc %d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = obj.ID
	}
	f.clk.RunUntilIdle()
	for i, sp := range f.spaces {
		if sp.Len() != n {
			t.Fatalf("site %d holds %d rows, want %d", i, sp.Len(), n)
		}
	}
	return ids
}

// TestMerkleConvergedRoundIsConstant: once replicas converge, a sync
// round is one root compare per peer — digest cost independent of the
// number of stored objects.
func TestMerkleConvergedRoundIsConstant(t *testing.T) {
	f := newFixture(t, 2)
	seedConverged(t, f, 300)

	before := f.reps[0].Stats()
	f.reps[0].SyncNow()
	f.clk.RunUntilIdle()
	after := f.reps[0].Stats()

	if after.ConvergedRoots <= before.ConvergedRoots {
		t.Fatalf("converged round did not match roots: %+v", after)
	}
	if after.DigestEntriesSent != before.DigestEntriesSent {
		t.Fatalf("converged round shipped %d digest entries",
			after.DigestEntriesSent-before.DigestEntriesSent)
	}
	// One root frame + high-water marks each way: well under 200 bytes
	// for a 2-site mesh, regardless of the 300 stored objects.
	if got := after.LastRoundDigestBytes; got == 0 || got > 200 {
		t.Fatalf("converged round digest bytes = %d, want (0, 200]", got)
	}
	if after.Rounds <= before.Rounds {
		t.Fatal("no round ran")
	}
}

// TestMerkleHighWaterFastPath: a fresh write advances the writer site's
// high-water mark, so the next round repairs it straight off the marks —
// no subtree descent, no digest entries.
func TestMerkleHighWaterFastPath(t *testing.T) {
	f := newFixture(t, 2)
	ids := seedConverged(t, f, 50)

	before := f.reps[0].Stats()
	f.update(t, 0, ids[7], "v2")
	f.clk.RunUntilIdle()
	after := f.reps[0].Stats()
	got := f.assertConverged(t, ids[7])
	if got.Fields["title"] != "v2" {
		t.Fatalf("update not propagated: %v", got.Fields)
	}
	if after.DescentCalls != before.DescentCalls {
		t.Fatalf("fast-path round descended the tree: %+v", after)
	}
	if after.DigestEntriesSent != before.DigestEntriesSent {
		t.Fatal("fast-path round shipped digest entries")
	}
	if after.Pushed <= before.Pushed {
		t.Fatal("the updated row was not pushed")
	}
}

// update writes title into row id at site i, at the row's current version.
func (f *fixture) update(t testing.TB, i int, id, title string) *information.Object {
	t.Helper()
	cur, err := f.spaces[i].Get("prinz", id)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := f.spaces[i].Update("prinz", id, cur.Version, map[string]string{"title": title})
	if err != nil {
		t.Fatal(err)
	}
	return upd
}

// TestMerkleColdUpdateRidesTheMarks: a site numbers its writes with one
// counter, so a first update of a cold row lands past the site's mark
// however often a hot row was written before — the peer's round pulls it
// straight off the marks, with no subtree descent.
func TestMerkleColdUpdateRidesTheMarks(t *testing.T) {
	f := newManualFixture(t, 2)
	ids := make([]string, 400)
	for i := range ids {
		obj, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": fmt.Sprintf("doc %d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = obj.ID
	}
	for i := 0; i < 6; i++ {
		f.update(t, 0, ids[0], fmt.Sprintf("hot v%d", i))
	}
	f.reps[0].SyncNow()
	f.clk.RunUntilIdle()
	f.assertConverged(t, ids[0])

	before := f.reps[1].Stats()
	f.update(t, 0, ids[123], "cold v2")
	f.reps[1].SyncNow()
	f.clk.RunUntilIdle()
	after := f.reps[1].Stats()

	if got := f.assertConverged(t, ids[123]); got.Fields["title"] != "cold v2" {
		t.Fatalf("cold update not propagated: %v", got.Fields)
	}
	if after.HWFastDeltas <= before.HWFastDeltas {
		t.Fatalf("the marks repaired nothing: %+v", after)
	}
	if after.DescentCalls != before.DescentCalls || after.DigestEntriesSent != before.DigestEntriesSent {
		t.Fatalf("the cold update needed a descent: %+v", after)
	}
}

// relayAhead gives s1 a later s0 write ahead of s0's earlier ones — as a
// third site's relay would carry it — so s1's mark for s0 covers writes it
// lacks: the gap the marks cannot explain, which only descent repairs.
func (f *fixture) relayAhead(t testing.TB, id string) {
	t.Helper()
	later := f.update(t, 0, id, "relayed")
	if _, _, err := f.spaces[1].ApplyRemote(later); err != nil {
		t.Fatal(err)
	}
}

// TestMerkleDescentRepairsHighWaterBlindSpot: an update the peer's mark
// already covers — a later write of its site reached the peer first — is
// invisible to the fast path: the negotiation must descend the tree and
// repair it through a scoped digest exchange covering only the divergent
// leaves.
func TestMerkleDescentRepairsHighWaterBlindSpot(t *testing.T) {
	// Manual rounds (no AutoSync): the round that descends stays the last
	// round, so its per-round stats remain observable.
	f := newManualFixture(t, 2)
	ids := make([]string, 400)
	for i := range ids {
		obj, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": fmt.Sprintf("doc %d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = obj.ID
	}
	f.reps[0].SyncNow()
	f.clk.RunUntilIdle()
	if f.spaces[1].Len() != len(ids) {
		t.Fatalf("seeding did not converge: s1 holds %d rows", f.spaces[1].Len())
	}

	// An update of a cold object, then a later write relayed ahead of it.
	before := f.reps[0].Stats()
	cold := ids[123]
	f.update(t, 0, cold, "cold v2")
	f.relayAhead(t, ids[0])
	f.reps[0].SyncNow()
	f.clk.RunUntilIdle()
	after := f.reps[0].Stats()

	got := f.assertConverged(t, cold)
	if got.Fields["title"] != "cold v2" {
		t.Fatalf("blind-spot update not propagated: %v", got.Fields)
	}
	if after.DescentCalls <= before.DescentCalls {
		t.Fatalf("no descent ran: %+v", after)
	}
	entries := after.DigestEntriesSent - before.DigestEntriesSent
	if entries == 0 {
		t.Fatal("descent ended without a scoped digest exchange")
	}
	// The scoped exchange covers one leaf bucket (~400/4096 ids), not the
	// whole 400-object digest.
	if entries > 20 {
		t.Fatalf("scoped exchange shipped %d digest entries, want a leaf's worth", entries)
	}
	if d := after.LastRoundDescentDepth; d == 0 || d > 3 {
		t.Fatalf("descent depth = %d, want 1..3", d)
	}
}

// TestSyncRejectsUnscopedRequest: replica.sync serves only the scoped
// step of a negotiation. A request that names no leaf buckets — the
// former whole-space exchange, or anything malformed — gets a remote
// error at once (not a timeout) and moves no state, digest or no digest.
func TestSyncRejectsUnscopedRequest(t *testing.T) {
	f := newManualFixture(t, 2)
	held, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": "held"})
	if err != nil {
		t.Fatal(err)
	}
	probe := rpc.NewEndpoint(f.net.MustAddNode("probe"), f.clk)
	before := f.reps[0].Stats()

	for name, req := range map[string]syncReq{
		"no digest":   {},
		"with digest": {Digest: map[string]vclock.Version{"other": {"probe": 1}}},
	} {
		var got error
		answered := false
		probe.GoMsg(f.reps[0].Addr(), MethodSync, req, func(res rpc.Result) {
			var resp syncResp
			got, answered = res.Decode(&resp), true
			if len(resp.Deltas) != 0 || len(resp.Want) != 0 {
				t.Errorf("%s: unscoped request was answered with state: %+v", name, resp)
			}
		}, rpc.CallTimeout(DefaultSyncTimeout))
		f.clk.RunUntilIdle()
		var remote *rpc.RemoteError
		if !answered || !errors.As(got, &remote) {
			t.Fatalf("%s: err = %v (answered %v), want a remote error", name, got, answered)
		}
	}

	after := f.reps[0].Stats()
	if after.ServedDigests != before.ServedDigests || after.DeltasServed != before.DeltasServed {
		t.Fatalf("refused requests were counted as served: before %+v after %+v", before, after)
	}
	if f.spaces[0].Len() != 1 {
		t.Fatalf("space changed: %d rows", f.spaces[0].Len())
	}
	if got, ok := f.spaces[0].Fetch(held.ID); !ok || got.VV.Compare(held.VV) != vclock.Equal {
		t.Fatalf("held row changed: %+v", got)
	}
}

// TestPeerWithoutDigestHandlerIsAPeerFailure: an endpoint that does not
// serve replica.digest is an ordinary failing peer — one negotiation
// attempt and one PeerFailure per round, retried up to the failure cap,
// with no lasting per-peer state: the pair converges on the first round
// after the handlers exist.
func TestPeerWithoutDigestHandlerIsAPeerFailure(t *testing.T) {
	f := newFixture(t, 1)
	bare := rpc.NewEndpoint(f.net.MustAddNode("repl-s1"), f.clk)
	f.reps[0].AddPeer(bare.Addr())
	obj, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": "draft"})
	if err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle() // must drain: the failure cap ends the retries

	s0 := f.reps[0].Stats()
	if s0.Rounds != DefaultFailureCap || s0.PeerFailures != DefaultFailureCap ||
		s0.MerkleExchanges != DefaultFailureCap || s0.PeerSyncs != 0 {
		t.Fatalf("want %d rounds, each one negotiation attempt and one failure: %+v", DefaultFailureCap, s0)
	}

	// The peer comes up with the protocol registered on the same address.
	sp := information.NewSpace(f.spaces[0].Registry(), nil, f.clk, information.WithSite("s1"))
	f.spaces = append(f.spaces, sp)
	f.reps = append(f.reps, New(bare, f.clk, sp))
	f.reps[0].SyncNow()
	f.clk.RunUntilIdle()
	f.assertConverged(t, obj.ID)
	if s := f.reps[0].Stats(); s.PeerFailures != DefaultFailureCap || s.PeerSyncs == 0 {
		t.Fatalf("first round after the handler exists did not sync: %+v", s)
	}
}

// newManualFixture is newFixture without AutoSync: rounds run only on
// explicit SyncNow, so a test can pin down exactly which round did what.
func newManualFixture(t *testing.T, n int) *fixture {
	t.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(7))
	registry := information.NewSchemaRegistry()
	if err := registry.Register(information.Schema{Name: "doc", Fields: []information.Field{
		{Name: "title", Type: information.FieldText, Required: true},
		{Name: "body", Type: information.FieldText},
	}}); err != nil {
		t.Fatal(err)
	}
	ids := id.New()
	f := &fixture{clk: clk, net: net}
	for i := 0; i < n; i++ {
		site := fmt.Sprintf("s%d", i)
		sp := information.NewSpace(registry, nil, clk,
			information.WithSite(site), information.WithIDs(ids))
		ep := rpc.NewEndpoint(net.MustAddNode(netsim.Address("repl-"+site)), clk, rpc.WithIDs(ids))
		f.spaces = append(f.spaces, sp)
		f.reps = append(f.reps, New(ep, clk, sp))
	}
	for i, r := range f.reps {
		for j, o := range f.reps {
			if i != j {
				r.AddPeer(o.Addr())
			}
		}
	}
	return f
}
