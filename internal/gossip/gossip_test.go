package gossip

import (
	"fmt"
	"maps"
	"sort"
	"testing"

	"mocca/internal/channel"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
)

// fakeReplica is a minimal Replica: it remembers applied rows and counts
// sync arms, so rumor mongering can be tested without a real replicator.
// Like a real one it lends the row it holds: FetchWire hands every caller
// the same object until the row changes.
type fakeReplica struct {
	rows  map[string]vclock.Version
	lent  map[string]*information.Object
	armed int
}

func newFakeReplica() *fakeReplica {
	return &fakeReplica{rows: map[string]vclock.Version{}, lent: map[string]*information.Object{}}
}

func (f *fakeReplica) HasSeen(id, site string, counter uint64) bool {
	have, ok := f.rows[id]
	return ok && have.Counter(site) >= counter
}

func (f *fakeReplica) FetchWire(_ string, ids []string) []*information.Object {
	var out []*information.Object
	for _, id := range ids {
		vv, ok := f.rows[id]
		if !ok {
			continue
		}
		if obj := f.lent[id]; obj == nil || !maps.Equal(obj.VV, vv) {
			f.lent[id] = &information.Object{ID: id, VV: vv}
		}
		out = append(out, f.lent[id])
	}
	return out
}

func (f *fakeReplica) ApplyWire(objs []*information.Object) int {
	applied := 0
	for _, o := range objs {
		if have, ok := f.rows[o.ID]; ok && have.Dominates(o.VV) {
			continue
		}
		f.rows[o.ID] = o.VV
		applied++
	}
	return applied
}

func (f *fakeReplica) SyncSoon() { f.armed++ }

type overlayFixture struct {
	clk      *vclock.Simulated
	net      *netsim.Network
	nodes    map[string]*netsim.Node
	overlays []*Overlay
	replicas []*fakeReplica
	// advertised is the mutable membership directory all overlays share —
	// the stand-in for trader offers.
	advertised []Peer
	// tapFn, if set, sees every frame an overlay's endpoint sends or
	// receives.
	tapFn func(*channel.Frame)
}

// newOverlayFixture builds n overlays ("g00".."g<n-1>") over one
// simulated network, joins each, and drains to quiescence.
func newOverlayFixture(t *testing.T, n int, opts ...Option) *overlayFixture {
	t.Helper()
	f := &overlayFixture{
		clk:   vclock.NewSimulated(netsim.DefaultEpoch),
		nodes: map[string]*netsim.Node{},
	}
	f.net = netsim.New(netsim.WithClock(f.clk), netsim.WithSeed(7))
	for i := 0; i < n; i++ {
		site := fmt.Sprintf("g%02d", i)
		addr := netsim.Address("gossip-" + site)
		f.advertised = append(f.advertised, Peer{Site: site, Addr: addr, Repl: addr})
	}
	for i := 0; i < n; i++ {
		p := f.advertised[i]
		node := f.net.MustAddNode(p.Addr)
		f.nodes[p.Site] = node
		ep := rpc.NewEndpoint(node, f.clk, rpc.WithChannel(channel.WithInterceptor(func(fr *channel.Frame) error {
			if f.tapFn != nil {
				f.tapFn(fr)
			}
			return nil
		})))
		rep := newFakeReplica()
		all := append([]Option{
			WithSeed(42),
			WithContacts(func() []Peer { return append([]Peer(nil), f.advertised...) }),
		}, opts...)
		f.replicas = append(f.replicas, rep)
		f.overlays = append(f.overlays, New(ep, f.clk, p.Site, p.Repl, rep, all...))
	}
	for _, o := range f.overlays {
		o.Join()
	}
	f.clk.RunUntilIdle()
	return f
}

// connected reports whether the union of active-view edges joins every
// overlay in one component.
func (f *overlayFixture) connected() bool {
	adj := map[string]map[string]bool{}
	edge := func(a, b string) {
		if adj[a] == nil {
			adj[a] = map[string]bool{}
		}
		adj[a][b] = true
	}
	for _, o := range f.overlays {
		for _, p := range o.ActiveView() {
			edge(o.Self().Site, p.Site)
			edge(p.Site, o.Self().Site)
		}
	}
	seen := map[string]bool{f.overlays[0].Self().Site: true}
	frontier := []string{f.overlays[0].Self().Site}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for next := range adj[cur] {
			if !seen[next] {
				seen[next] = true
				frontier = append(frontier, next)
			}
		}
	}
	return len(seen) == len(f.overlays)
}

func TestViewFormationSublinear(t *testing.T) {
	const n = 24
	f := newOverlayFixture(t, n)
	target := ilog2(n) + 2
	for _, o := range f.overlays {
		st := o.Stats()
		if st.ActiveSize == 0 {
			t.Fatalf("%s: empty active view", o.Self().Site)
		}
		if st.ActiveSize > target {
			t.Fatalf("%s: active view %d exceeds target %d — not sublinear",
				o.Self().Site, st.ActiveSize, target)
		}
	}
	if !f.connected() {
		t.Fatal("union of active views is not a connected graph")
	}
}

// TestRingSuccessorPinned: every overlay holds its sorted-ring successor
// in the active view — the deterministic connectivity backstop.
func TestRingSuccessorPinned(t *testing.T) {
	f := newOverlayFixture(t, 10)
	sites := make([]string, len(f.overlays))
	for i, o := range f.overlays {
		sites[i] = o.Self().Site
	}
	sort.Strings(sites)
	for i, site := range sites {
		succ := sites[(i+1)%len(sites)]
		var o *Overlay
		for _, cand := range f.overlays {
			if cand.Self().Site == site {
				o = cand
			}
		}
		found := false
		for _, p := range o.ActiveView() {
			if p.Site == succ {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: ring successor %s missing from active view %v",
				site, succ, o.ActiveView())
		}
	}
}

// TestProbeFailureDemotes: a dead peer is demoted out of every active
// view once Suspect triggers probing, and lands in passive views so a
// heal can bring it back.
func TestProbeFailureDemotes(t *testing.T) {
	f := newOverlayFixture(t, 8)
	dead := f.overlays[3].Self()
	f.nodes[dead.Site].SetDown(true)
	f.overlays[3].Close()
	for i, o := range f.overlays {
		if i != 3 {
			o.Suspect()
		}
	}
	f.clk.RunUntilIdle()
	for i, o := range f.overlays {
		if i == 3 {
			continue
		}
		for _, p := range o.ActiveView() {
			if p.Addr == dead.Addr {
				t.Fatalf("%s still lists dead %s in its active view", o.Self().Site, dead.Site)
			}
		}
	}
}

// TestRumorReachesEveryReplica: one Publish covers all members by pushes
// along the eager links — without any real replicator.
func TestRumorReachesEveryReplica(t *testing.T) {
	f := newOverlayFixture(t, 16)
	vv := vclock.Version{}.Tick("g00")
	f.replicas[0].rows["obj-1"] = vv
	f.overlays[0].Publish("obj-1", vv, nil)
	f.clk.RunUntilIdle()

	missing := 0
	for i, rep := range f.replicas {
		if !rep.HasSeen("obj-1", "g00", 1) {
			missing++
			t.Logf("replica %d missed the rumor", i)
		}
		if i != 0 && rep.HasSeen("obj-1", "g00", 1) && rep.armed == 0 {
			t.Fatalf("replica %d applied a rumor but never armed anti-entropy", i)
		}
	}
	// Before any prune every link is eager, so the first push floods the
	// connected active-view graph: a 16-member overlay is fully covered.
	if missing > 0 {
		t.Fatalf("%d of %d replicas missed the rumor", missing, len(f.replicas))
	}
	pub := f.overlays[0].Stats()
	if pub.RumorsPublished != 1 {
		t.Fatalf("RumorsPublished = %d, want 1", pub.RumorsPublished)
	}
}

// TestDuplicateRumorNotReforwarded: publishing the same write twice does
// not restart the epidemic, and the object's next write is not taken for
// a duplicate of it.
func TestDuplicateRumorNotReforwarded(t *testing.T) {
	f := newOverlayFixture(t, 6)
	vv := vclock.Version{}.Tick("g00")
	f.replicas[0].rows["obj-1"] = vv
	f.overlays[0].Publish("obj-1", vv, nil)
	f.clk.RunUntilIdle()
	seen := func() (total int64) {
		for _, o := range f.overlays {
			total += o.Stats().RumorsSeen
		}
		return total
	}
	seen0 := seen()
	f.overlays[0].Publish("obj-1", vv, nil) // same rumor again: deduped at the source
	f.clk.RunUntilIdle()
	if grew := seen() - seen0; grew > int64(len(f.overlays)) {
		t.Fatalf("duplicate publish grew RumorsSeen by %d — it re-flooded", grew)
	}
	if grew := seen() - seen0; grew != 0 {
		t.Fatalf("a duplicate publish was pushed again (%d receipts)", grew)
	}
	next := vv.Tick("g00")
	f.replicas[0].rows["obj-1"] = next
	f.overlays[0].Publish("obj-1", next, nil)
	f.clk.RunUntilIdle()
	for i, rep := range f.replicas {
		if !rep.HasSeen("obj-1", "g00", 2) {
			t.Fatalf("replica %d never got the second write of obj-1", i)
		}
	}
}

// TestOverlayGoesDormant: after the views stabilize, no timers stay
// armed — the discrete-event loop must drain for deployment Run() to
// terminate.
func TestOverlayGoesDormant(t *testing.T) {
	f := newOverlayFixture(t, 12)
	if pending := f.clk.Pending(); pending != 0 {
		t.Fatalf("%d timers still armed after drain — the overlay never sleeps", pending)
	}
	rounds := func() int64 {
		var total int64
		for _, o := range f.overlays {
			total += o.Stats().Rounds
		}
		return total
	}
	before := rounds()
	f.clk.RunUntilIdle()
	if after := rounds(); after != before {
		t.Fatalf("rounds grew %d→%d with no stimulus", before, after)
	}
}

// TestMendReknitsAfterPartition: demoted peers return to the active
// views once the cut heals and Mend re-arms stabilization.
func TestMendReknitsAfterPartition(t *testing.T) {
	f := newOverlayFixture(t, 10)
	// Cut the first three members off.
	var a, b []netsim.Address
	for i, o := range f.overlays {
		if i < 3 {
			a = append(a, o.Self().Addr)
		} else {
			b = append(b, o.Self().Addr)
		}
	}
	f.net.Partition(a, b)
	for _, o := range f.overlays {
		o.Suspect()
	}
	f.clk.RunUntilIdle()

	f.net.Heal()
	for _, o := range f.overlays {
		o.Mend()
	}
	f.clk.RunUntilIdle()
	if !f.connected() {
		t.Fatal("overlay still split after Heal+Mend")
	}
}

// TestClosedOverlayRefusesProtocol: a crashed site's overlay stops
// mutating state; a join against it fails without wedging the caller.
func TestClosedOverlayRefusesProtocol(t *testing.T) {
	f := newOverlayFixture(t, 4)
	f.overlays[1].Close()
	before := f.overlays[1].Stats().ActiveSize
	f.overlays[0].Publish("obj-x", vclock.Version{}.Tick("g00"), nil)
	f.clk.RunUntilIdle()
	if got := f.overlays[1].Stats().ActiveSize; got != before {
		t.Fatalf("closed overlay's view changed %d→%d", before, got)
	}
}
