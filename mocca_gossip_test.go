package mocca

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mocca/internal/netsim"
	"mocca/internal/vclock"
)

// gossipDeployment builds an n-site deployment on the epidemic overlay
// and drains the join/stabilization traffic.
func gossipDeployment(tb testing.TB, n int, opts ...Option) (*Deployment, []*Site) {
	tb.Helper()
	dep := NewDeployment(append([]Option{WithSeed(7), WithGossip()}, opts...)...)
	sites := make([]*Site, n)
	for i := range sites {
		name := fmt.Sprintf("s%03d", i)
		sites[i] = dep.AddSite(name, name+".org")
	}
	dep.Run()
	return dep, sites
}

// assertAllConverged requires every site's replica to be digest- and
// Merkle-root-identical to the first site's.
func assertAllConverged(tb testing.TB, sites []*Site) {
	tb.Helper()
	ref := sites[0].Space()
	refRoot := ref.Tree().Root()
	refDigest := spaceDigest(ref)
	for _, s := range sites[1:] {
		if root := s.Space().Tree().Root(); root != refRoot {
			tb.Fatalf("site %s Merkle root %x diverges from %s's %x",
				s.Name, root, sites[0].Name, refRoot)
		}
		digest := spaceDigest(s.Space())
		if len(digest) != len(refDigest) {
			tb.Fatalf("site %s holds %d rows, %s holds %d",
				s.Name, len(digest), sites[0].Name, len(refDigest))
		}
		for id, vv := range refDigest {
			if got, ok := digest[id]; !ok || got.Compare(vv) != vclock.Equal {
				tb.Fatalf("site %s digest for %s = %v, want %v", s.Name, id, got, vv)
			}
		}
	}
}

// TestGossipConvergence is the overlay's basic contract: a deployment
// built WithGossip converges writes from any site to every site, with
// per-site peer sets far below the mesh's n-1.
func TestGossipConvergence(t *testing.T) {
	dep, sites := gossipDeployment(t, 12)

	// Every overlay found an active view; no replicator peers full mesh.
	for _, s := range sites {
		st := s.Overlay().Stats()
		if st.ActiveSize == 0 {
			t.Fatalf("site %s has an empty active view", s.Name)
		}
		if peers := len(s.Replicator().Peers()); peers >= len(sites)-1 {
			t.Fatalf("site %s peers %d replicators — that is the mesh, not an overlay", s.Name, peers)
		}
	}

	// Writes at scattered sites reach everyone.
	for i, w := range []int{0, 5, 11} {
		if _, err := sites[w].Space().Put("user", SharedSchemaName,
			map[string]string{"title": fmt.Sprintf("doc-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	dep.Run()
	assertAllConverged(t, sites)

	// Rumors did the early spreading: at least one site pulled a row via
	// a rumor fetch rather than waiting for anti-entropy.
	fetched := int64(0)
	for _, s := range sites {
		fetched += s.Overlay().Stats().RumorApplied
	}
	if fetched == 0 {
		t.Fatal("no site applied a rumor-fetched row; rumor mongering is dead")
	}

	if err := dep.ReconcileChannels(); err != nil {
		t.Fatalf("gossip traffic bypassed the channel stack: %v", err)
	}
}

// TestGossipLateJoinPullsState: a site joining an established overlay
// deployment pulls the existing rows through its first view peers.
func TestGossipLateJoinPullsState(t *testing.T) {
	dep, sites := gossipDeployment(t, 6)
	if _, err := sites[2].Space().Put("user", SharedSchemaName,
		map[string]string{"title": "before-join"}); err != nil {
		t.Fatal(err)
	}
	dep.Run()

	late := dep.AddSite("zlate", "zlate.org")
	dep.Run()
	assertAllConverged(t, append(sites, late))
	if late.Space().Len() == 0 {
		t.Fatal("late joiner pulled nothing")
	}
}

// TestGossipCrashRestart: a crashed site leaves the advertised
// membership (its offer is withdrawn, peers demote it); after Restart it
// rejoins the overlay and pulls what it missed.
func TestGossipCrashRestart(t *testing.T) {
	dep, sites := gossipDeployment(t, 8)
	victim := sites[3]
	victim.Crash()
	dep.Run()

	if _, err := sites[0].Space().Put("user", SharedSchemaName,
		map[string]string{"title": "while-down"}); err != nil {
		t.Fatal(err)
	}
	dep.Run()

	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	dep.Run()
	assertAllConverged(t, sites)
}

// TestGossipPartitionReconvergence is the partition-under-gossip
// acceptance scenario: a seeded netsim schedule partitions a random 20%
// of sites away mid-rumor, both sides keep writing, and after Heal every
// site's digest and Merkle root are byte-identical again.
func TestGossipPartitionReconvergence(t *testing.T) {
	const n = 20
	dep, sites := gossipDeployment(t, n)

	// A write whose rumor is still in flight when the partition lands.
	if _, err := sites[0].Space().Put("user", SharedSchemaName,
		map[string]string{"title": "mid-rumor"}); err != nil {
		t.Fatal(err)
	}
	dep.Advance(10 * time.Millisecond) // rumor frames are on the wire now

	// Seeded choice of the minority 20%.
	rng := rand.New(rand.NewSource(1992))
	minority := map[int]bool{}
	for len(minority) < n/5 {
		minority[rng.Intn(n)] = true
	}
	var minorityAddrs, majorityAddrs []netsim.Address
	var minoritySites, majoritySites []*Site
	for i, s := range sites {
		addrs := []netsim.Address{
			netsim.Address("mta-" + s.Name), netsim.Address("repl-" + s.Name),
			netsim.Address("gossip-" + s.Name),
		}
		if minority[i] {
			minorityAddrs = append(minorityAddrs, addrs...)
			minoritySites = append(minoritySites, s)
		} else {
			majorityAddrs = append(majorityAddrs, addrs...)
			majoritySites = append(majoritySites, s)
		}
	}
	dep.Network().Partition(minorityAddrs, majorityAddrs)

	// Writes on both sides of the cut.
	minObj, err := minoritySites[0].Space().Put("user", SharedSchemaName,
		map[string]string{"title": "minority-side"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := majoritySites[0].Space().Put("user", SharedSchemaName,
		map[string]string{"title": "majority-side"}); err != nil {
		t.Fatal(err)
	}
	// Draining under the partition must terminate (overlay failure caps)
	// and each side must converge internally.
	dep.Run()
	assertAllConverged(t, minoritySites)
	assertAllConverged(t, majoritySites)

	// The cut held: the minority write did not reach the majority.
	if _, leaked := majoritySites[0].Space().Fetch(minObj.ID); leaked {
		t.Fatalf("minority write %s crossed the partition", minObj.ID)
	}

	dep.Network().Heal()
	dep.Run()
	assertAllConverged(t, sites)

	if err := dep.ReconcileChannels(); err != nil {
		t.Fatal(err)
	}
}
