package replica

import (
	"fmt"
	"testing"
	"time"

	"mocca/internal/id"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
)

type fixture struct {
	clk    *vclock.Simulated
	net    *netsim.Network
	spaces []*information.Space
	reps   []*Replicator
}

// newFixture builds n site replicas ("s0".."s<n-1>") of one logical space
// over one simulated network, full-mesh peered, with auto-sync armed.
func newFixture(t *testing.T, n int, opts ...Option) *fixture {
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
		f.reps = append(f.reps, New(ep, clk, sp, opts...))
	}
	for i, r := range f.reps {
		for j, o := range f.reps {
			if i != j {
				r.AddPeer(o.Addr())
			}
		}
		r.AutoSync(time.Second)
	}
	return f
}

func (f *fixture) assertConverged(t *testing.T, objID string) *information.Object {
	t.Helper()
	ref, err := f.spaces[0].Get("anyone", objID)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range f.spaces[1:] {
		obj, err := sp.Get("anyone", objID)
		if err != nil {
			t.Fatalf("site %d: %v", i+1, err)
		}
		if obj.VV.Compare(ref.VV) != vclock.Equal || obj.Version != ref.Version ||
			obj.Site != ref.Site || obj.Fields["title"] != ref.Fields["title"] {
			t.Fatalf("site %d diverged: %+v vs %+v", i+1, obj, ref)
		}
	}
	return ref
}

func TestAutoSyncConvergesAndGoesDormant(t *testing.T) {
	f := newFixture(t, 2)
	obj, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": "draft"})
	if err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	f.assertConverged(t, obj.ID)

	// Converged and dormant: nothing left on the event queue.
	if fired := f.clk.RunUntilIdle(); fired != 0 {
		t.Fatalf("dormant replicators still fired %d events", fired)
	}
	st := f.reps[0].Stats()
	if st.Rounds == 0 || st.Pushed == 0 {
		t.Fatalf("stats = %+v", st)
	}

	// A later write re-arms and propagates again.
	if _, err := f.spaces[0].Update("prinz", obj.ID, obj.Version, map[string]string{"title": "v2"}); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	got := f.assertConverged(t, obj.ID)
	if got.Fields["title"] != "v2" {
		t.Fatalf("update not propagated: %v", got.Fields)
	}
}

func TestThreeSiteConcurrentUpdateConverges(t *testing.T) {
	f := newFixture(t, 3)
	obj, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": "draft"})
	if err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	f.assertConverged(t, obj.ID)

	// Concurrent updates on s0 and s1 at the same instant: site order
	// decides ("s1" > "s0").
	if _, err := f.spaces[0].Update("prinz", obj.ID, 1, map[string]string{"title": "s0-edit"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.spaces[1].Update("prinz", obj.ID, 1, map[string]string{"title": "s1-edit"}); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	got := f.assertConverged(t, obj.ID)
	if got.Fields["title"] != "s1-edit" || got.Site != "s1" || got.Version != 3 {
		t.Fatalf("winner = %+v", got)
	}
	var conflicts int64
	for _, r := range f.reps {
		conflicts += r.Stats().Conflicts
	}
	if conflicts == 0 {
		t.Fatal("no replicator recorded the conflict")
	}
}

func TestPartitionFailureCapAndHeal(t *testing.T) {
	f := newFixture(t, 2, WithFailureCap(3))
	obj, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": "draft"})
	if err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	f.assertConverged(t, obj.ID)

	f.net.Partition([]netsim.Address{"repl-s0"}, []netsim.Address{"repl-s1"})
	if _, err := f.spaces[0].Update("prinz", obj.ID, 1, map[string]string{"title": "lonely"}); err != nil {
		t.Fatal(err)
	}
	// The failure cap bounds retries: the run drains instead of spinning.
	f.clk.RunUntilIdle()
	st := f.reps[0].Stats()
	if st.PeerFailures == 0 {
		t.Fatalf("expected peer failures under partition: %+v", st)
	}
	if other, _ := f.spaces[1].Get("anyone", obj.ID); other.Fields["title"] == "lonely" {
		t.Fatal("write crossed a partition")
	}

	f.net.Heal()
	f.reps[0].SyncNow()
	f.clk.RunUntilIdle()
	got := f.assertConverged(t, obj.ID)
	if got.Fields["title"] != "lonely" {
		t.Fatalf("heal did not converge: %v", got.Fields)
	}
}

// TestManualSyncNowWithoutAutoSync covers replicators that never call
// AutoSync: rounds run only on explicit SyncNow requests, and a request
// is honoured even when it lands while a round is armed or in flight.
func TestManualSyncNowWithoutAutoSync(t *testing.T) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(11))
	registry := information.NewSchemaRegistry()
	if err := registry.Register(information.Schema{Name: "doc", Fields: []information.Field{
		{Name: "title", Type: information.FieldText, Required: true},
	}}); err != nil {
		t.Fatal(err)
	}
	ids := id.New()
	mk := func(site string) *Replicator {
		sp := information.NewSpace(registry, nil, clk,
			information.WithSite(site), information.WithIDs(ids))
		ep := rpc.NewEndpoint(net.MustAddNode(netsim.Address("repl-"+site)), clk, rpc.WithIDs(ids))
		return New(ep, clk, sp)
	}
	a, b := mk("s0"), mk("s1")
	a.AddPeer(b.Addr())
	b.AddPeer(a.Addr())

	obj, err := a.Space().Put("ada", "doc", map[string]string{"title": "one"})
	if err != nil {
		t.Fatal(err)
	}
	// No AutoSync: the write alone moves nothing.
	if fired := clk.RunUntilIdle(); fired != 0 {
		t.Fatalf("manual replicator scheduled %d events on its own", fired)
	}
	// A request issued while a round is in flight must still be honoured
	// (one extra round), even without AutoSync.
	a.SyncNow()
	a.SyncNow() // absorbed into the pending round
	clk.RunUntilIdle()
	got, err := b.Space().Get("ada", obj.ID)
	if err != nil || got.Fields["title"] != "one" {
		t.Fatalf("manual sync failed: %v %v", got, err)
	}
	if a.Stats().Rounds == 0 {
		t.Fatal("no round ran")
	}
	// Dormant again afterwards.
	if fired := clk.RunUntilIdle(); fired != 0 {
		t.Fatalf("manual replicator kept running: %d events", fired)
	}
}

// TestSyncNowOvertakesArmedInterval: a local write arms a round one
// interval away; a SyncNow right after it must not wait behind that timer.
// The round opens within one round trip and the peer holds the row long
// before the interval is up; a later SyncSoon is still absorbed.
func TestSyncNowOvertakesArmedInterval(t *testing.T) {
	const interval = 5 * time.Second
	f := newFixture(t, 2)
	for _, r := range f.reps {
		r.AutoSync(interval)
	}
	obj, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": "restart write"})
	if err != nil {
		t.Fatal(err)
	}
	f.reps[0].SyncNow()
	f.reps[0].SyncSoon()
	rtt := 2 * 5 * time.Millisecond // the netsim default link, both ways
	f.clk.Advance(rtt)
	if got := f.reps[0].Stats().Rounds; got != 1 {
		t.Fatalf("%d rounds opened within one round trip, want 1", got)
	}
	if got := f.reps[1].Stats().ServedDigests; got != 1 {
		t.Fatalf("the peer answered %d openings within one round trip, want 1", got)
	}
	f.clk.Advance(interval / 10)
	if _, err := f.spaces[1].Get("prinz", obj.ID); err != nil {
		t.Fatalf("the peer lacks the row %v after the SyncNow: %v", interval/10, err)
	}
	f.clk.RunUntilIdle()
	f.assertConverged(t, obj.ID)
}
