package gossip

import (
	"fmt"
	"testing"
	"time"

	"mocca/internal/channel"
	"mocca/internal/netsim"
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

// publishAt has member i write obj and publish it.
func (f *overlayFixture) publishAt(i int, obj string) vclock.Version {
	site := f.overlays[i].Self().Site
	vv := f.replicas[i].rows[obj].Clone().Tick(site)
	f.replicas[i].rows[obj] = vv
	f.overlays[i].Publish(obj, vv, nil)
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
			if i != x && !r.HasSeen("after-crash", f.overlays[pub].Self().Site, vv.Counter(f.overlays[pub].Self().Site)) {
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
