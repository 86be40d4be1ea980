package gossip

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"mocca/internal/channel"
	"mocca/internal/id"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/replica"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
)

// index is the fixture position of the overlay at addr.
func (f *overlayFixture) index(addr netsim.Address) int {
	for i, o := range f.overlays {
		if o.Self().Addr == addr {
			return i
		}
	}
	return -1
}

// tap records every frame the fixture's overlays send from now on.
func (f *overlayFixture) tap(fn func(*channel.Frame)) { f.tapFn = fn }

// treeTotals sums the tree's counters over a fixture's live overlays.
func (f *overlayFixture) treeTotals() (seen, prunes, grafts int64) {
	for _, o := range f.overlays {
		st := o.Stats()
		seen += st.RumorsSeen
		prunes += st.Prunes
		grafts += st.Grafts
	}
	return seen, prunes, grafts
}

// publishAt has member i write obj and publish it. Like a Space, the
// member numbers its writes with one counter: the write's entry for the
// site is one past every entry for it the member holds.
func (f *overlayFixture) publishAt(i int, obj string) vclock.Version {
	site := f.overlays[i].Self().Site
	top := uint64(0)
	for _, vv := range f.replicas[i].rows {
		top = max(top, vv.Counter(site))
	}
	vv := f.replicas[i].rows[obj].Merge(vclock.Version{site: top + 1})
	f.replicas[i].rows[obj] = vv
	f.overlays[i].Publish(obj, vv)
	return vv
}

// TestTreeSpansOnceAfterWarmUp: once every member has published a few
// writes, the eager links are a spanning tree — each write is received
// eagerly exactly n − 1 times, with no prune and no graft.
func TestTreeSpansOnceAfterWarmUp(t *testing.T) {
	const n = 16
	f := newOverlayFixture(t, n)
	for round := 0; round < 3; round++ {
		for i := range f.overlays {
			f.publishAt(i, fmt.Sprintf("warm-%d", i))
			f.clk.RunUntilIdle()
		}
	}
	for i := range f.overlays {
		seen0, prunes0, grafts0 := f.treeTotals()
		f.publishAt(i, fmt.Sprintf("obj-%d", i))
		f.clk.RunUntilIdle()
		seen, prunes, grafts := f.treeTotals()
		if seen-seen0 != n-1 || prunes != prunes0 || grafts != grafts0 {
			t.Fatalf("a write of g%02d was received eagerly %d times, with %d prunes and %d grafts; want %d, 0, 0",
				i, seen-seen0, prunes-prunes0, grafts-grafts0, n-1)
		}
	}
}

// TestActiveViewsAreSymmetric: on 16 overlays, after stabilization, after
// a member's crash and after a partition heals, every active link is held
// at both ends; each ring link is pinned at both ends; and no eviction
// ever cut a ring link — no member told its ring neighbour to disconnect.
func TestActiveViewsAreSymmetric(t *testing.T) {
	const n = 16
	type cut struct{ from, to netsim.Address }
	var disconnects []cut
	f := newOverlayFixture(t, n)
	f.tap(func(fr *channel.Frame) {
		if m, _ := fr.Env.Header("method"); fr.Dir == channel.Outbound && m == MethodDisconnect {
			disconnects = append(disconnects, cut{fr.Local, fr.Remote})
		}
	})
	check := func(stage string, dead map[int]bool) {
		t.Helper()
		for i, o := range f.overlays {
			if dead[i] {
				continue
			}
			for _, p := range o.ActiveView() {
				j := f.index(p.Addr)
				if dead[j] {
					continue
				}
				if !inActive(f.overlays[j], o.Self().Site) {
					t.Fatalf("%s: %s holds a link to %s, which does not hold it back", stage, o.Self().Site, p.Site)
				}
			}
			succ := f.overlays[(i+1)%n]
			for k := 2; dead[f.index(succ.Self().Addr)]; k++ {
				succ = f.overlays[(i+k)%n]
			}
			o.mu.Lock()
			pinned := o.ring == succ.Self().Addr
			o.mu.Unlock()
			succ.mu.Lock()
			back := succ.pinnedBy[o.Self().Addr]
			succ.mu.Unlock()
			if !pinned || !back {
				t.Fatalf("%s: the ring link %s→%s is pinned at %v and %v", stage, o.Self().Site, succ.Self().Site, pinned, back)
			}
		}
		for _, c := range disconnects {
			a, b := f.index(c.from), f.index(c.to)
			if (a+1)%n == b || (b+1)%n == a {
				t.Fatalf("%s: %s told its ring neighbour %s to disconnect", stage, c.from, c.to)
			}
		}
	}
	check("formation", nil)

	f.nodes["g05"].SetDown(true)
	f.overlays[5].Close()
	f.advertised = append(f.advertised[:5:5], f.advertised[6:]...)
	for i, o := range f.overlays {
		if i != 5 {
			o.Suspect()
		}
	}
	f.clk.RunUntilIdle()
	dead := map[int]bool{5: true}
	disconnects = nil // the ring re-pins around the dead member
	for i, o := range f.overlays {
		if i != 5 {
			o.Suspect()
		}
	}
	f.clk.RunUntilIdle()
	check("crash", dead)

	var a, b []netsim.Address
	for i, o := range f.overlays {
		if i < 8 {
			a = append(a, o.Self().Addr)
		} else {
			b = append(b, o.Self().Addr)
		}
	}
	f.net.Partition(a, b)
	for i, o := range f.overlays {
		if i != 5 {
			o.Suspect()
		}
	}
	f.clk.RunUntilIdle()
	f.net.Heal()
	for i, o := range f.overlays {
		if i != 5 {
			o.Mend()
		}
	}
	f.clk.RunUntilIdle()
	check("heal", dead)
}

// TestGraftRepairsAroundCrashedMember: on 16 warmed-up overlays a member
// with at least two tree branches crashes, and a neighbour of it on the
// tree publishes: the branches cut off behind the dead member learn of the
// write by ihave and graft it. A survivor with a lazy peer the push
// reached is told within one ihave interval and grafts one timeout later;
// a survivor whose every peer sat behind the dead member is told by a peer
// that grafted, one round of the two later. So every survivor holds the
// write within two ihave intervals plus two timeouts, plus the hops the
// pushes and grafts travel.
func TestGraftRepairsAroundCrashedMember(t *testing.T) {
	const n = 16
	f := newOverlayFixture(t, n)
	for round := 0; round < 3; round++ {
		for i := range f.overlays {
			f.publishAt(i, fmt.Sprintf("warm-%d", i))
			f.clk.RunUntilIdle()
		}
	}
	// The interior member: the one with the most eager links; the
	// publisher: one of its branches.
	x, branches := -1, []int(nil)
	for i, o := range f.overlays {
		o.mu.Lock()
		var eager []int
		for _, p := range o.active {
			if !o.lazy[p.Addr] {
				eager = append(eager, f.index(p.Addr))
			}
		}
		o.mu.Unlock()
		if len(eager) > len(branches) {
			x, branches = i, eager
		}
	}
	if len(branches) < 2 {
		t.Fatalf("no member has two tree branches: %v", branches)
	}
	f.nodes[f.overlays[x].Self().Site].SetDown(true)
	f.overlays[x].Close()
	pub := branches[0]
	_, _, grafts0 := f.treeTotals()
	vv := f.publishAt(pub, "after-crash")
	start := f.clk.Now()
	var last time.Duration
	for {
		missing := 0
		for i, r := range f.replicas {
			if i != x && !r.holds("after-crash", f.overlays[pub].Self().Site, vv.Counter(f.overlays[pub].Self().Site)) {
				missing++
			}
		}
		if missing == 0 {
			last = f.clk.Now().Sub(start)
			break
		}
		due, ok := f.clk.NextDeadline()
		if !ok {
			t.Fatalf("%d survivors never got the write", missing)
		}
		f.clk.AdvanceTo(due)
	}
	f.clk.RunUntilIdle()
	if _, _, grafts := f.treeTotals(); grafts == grafts0 {
		t.Fatal("the write reached every survivor without a graft: the crashed member was no branch point")
	}
	bound := 2*(ihaveInterval+graftTimeout) + 2*n*5*time.Millisecond
	if last > bound {
		t.Fatalf("the last survivor got the write after %v, want within %v", last, bound)
	}
}

// TestGraftAnsweredFromIndex: an ihave names a write by its dot alone, and
// an announcer whose dedup set does not hold the dot — a seenCap reset
// emptied it, or the write never came by the overlay — answers the graft
// through its replica's index: the row whose vector's entry for the site
// is the dot's counter. A write a later one of the same site superseded on
// its row is named by neither, so its graft brings nothing: the cost of
// naming a write without its row's id.
// replicatedPair is two joined overlays, g00 and g01, over real
// replicators and spaces; rewrite, if set, may change any frame an overlay
// endpoint sends.
type replicatedPair struct {
	clk      *vclock.Simulated
	overlays []*Overlay
	spaces   []*information.Space
	reps     []*replica.Replicator
	rewrite  func(*channel.Frame)
}

func newReplicatedPair(tb testing.TB) *replicatedPair {
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
	f := &replicatedPair{clk: clk}
	tap := rpc.WithChannel(channel.WithInterceptor(func(fr *channel.Frame) error {
		if fr.Dir == channel.Outbound && f.rewrite != nil {
			f.rewrite(fr)
		}
		return nil
	}))
	ids := id.New()
	peers := []Peer{{Site: "g00", Addr: "gossip-g00", Repl: "repl-g00"}, {Site: "g01", Addr: "gossip-g01", Repl: "repl-g01"}}
	contacts := WithContacts(func() []Peer { return append([]Peer(nil), peers...) })
	for _, p := range peers {
		sp := information.NewSpace(registry, nil, clk, information.WithSite(p.Site), information.WithIDs(ids))
		rep := replica.New(rpc.NewEndpoint(net.MustAddNode(p.Repl), clk, rpc.WithIDs(ids)), clk, sp)
		f.overlays = append(f.overlays, New(rpc.NewEndpoint(net.MustAddNode(p.Addr), clk, rpc.WithIDs(ids), tap), clk, p.Site, p.Repl, rep, contacts))
		f.spaces = append(f.spaces, sp)
		f.reps = append(f.reps, rep)
	}
	for _, o := range f.overlays {
		o.Join()
	}
	clk.RunUntilIdle()
	return f
}

func TestGraftAnsweredFromIndex(t *testing.T) {
	f := newReplicatedPair(t)
	clk, spaces := f.clk, f.spaces
	announcer, grafter := f.overlays[0], f.overlays[1]

	// Written, never published: the announcer's dedup set lacks the dot.
	obj, err := spaces[0].Put("anyone", "doc", map[string]string{"title": "t0"})
	if err != nil {
		t.Fatal(err)
	}
	announceIhave(announcer, grafter, dot{Site: "g00", Counter: obj.VV.Counter("g00")})
	clk.RunUntilIdle()
	if got, ok := spaces[1].Fetch(obj.ID); !ok || !maps.Equal(got.VV, obj.VV) {
		t.Fatalf("the grafted row is %v, %v; want %v", got, ok, obj.VV)
	}
	if g, f := grafter.Stats().Grafts, announcer.Stats().RumorFetches; g != 1 || f != 1 {
		t.Fatalf("%d grafts sent and %d served, want 1 and 1", g, f)
	}

	// Superseded: the row's entry for g00 has moved past the first dot.
	old, err := spaces[0].Put("anyone", "doc", map[string]string{"title": "u0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spaces[0].Update("anyone", old.ID, old.Version, map[string]string{"title": "u1"}); err != nil {
		t.Fatal(err)
	}
	announceIhave(announcer, grafter, dot{Site: "g00", Counter: old.VV.Counter("g00")})
	clk.RunUntilIdle()
	if _, ok := spaces[1].Fetch(old.ID); ok {
		t.Fatal("a superseded dot was answered: the announcer named a row for it")
	}
	if g := grafter.Stats().Grafts; g != 2 {
		t.Fatalf("%d grafts sent, want 2: the superseded dot reads as missing", g)
	}
}
