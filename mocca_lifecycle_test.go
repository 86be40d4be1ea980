package mocca

import (
	"reflect"
	"testing"
	"time"

	"mocca/internal/netsim"
)

// TestSiteLifecycle walks one site through boot → crash → restart →
// partition → heal on every topology and backend: whatever the peering
// mechanism and wherever the replica lives, the restarted site is a
// first-class member again — same addresses, all up, same state as
// everyone else, and no frame bypassed the channel stack on the way.
func TestSiteLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name            string
		gossip, durable bool
	}{
		{"mesh/memory", false, false},
		{"mesh/durable", false, true},
		{"gossip/memory", true, false},
		{"gossip/durable", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithSeed(41)}
			if tc.gossip {
				opts = append(opts, WithGossip())
			}
			if tc.durable {
				opts = append(opts, WithDurableStore(t.TempDir()))
			}
			dep := NewDeployment(opts...)
			sites := []*Site{
				dep.AddSite("s0", "s0.net"),
				dep.AddSite("s1", "s1.net"),
				dep.AddSite("s2", "s2.net"),
			}
			put := func(s *Site, title string) {
				t.Helper()
				if _, err := s.Space().Put("ada", SharedSchemaName, map[string]string{"title": title}); err != nil {
					t.Fatal(err)
				}
			}
			victim := sites[1]
			wantAddrs := []netsim.Address{"mta-s1", "repl-s1"}
			if tc.gossip {
				wantAddrs = append(wantAddrs, "gossip-s1")
			}
			if got := victim.Addrs(); !reflect.DeepEqual(got, wantAddrs) {
				t.Fatalf("Addrs() = %v, want %v", got, wantAddrs)
			}

			put(sites[0], "before")
			dep.Run()

			// Crash mid-sync: the write's round has frames on the wire.
			put(sites[0], "in flight")
			dep.Advance(time.Second + 10*time.Millisecond)
			victim.Crash()
			for _, addr := range victim.Addrs() {
				if node, ok := dep.Network().Node(addr); !ok || node.Up() {
					t.Fatalf("crashed site's node %s: exists %v, still up", addr, ok)
				}
			}
			put(sites[2], "while down")
			dep.Run()
			if err := victim.Restart(); err != nil {
				t.Fatal(err)
			}
			dep.Run()

			// The restarted site alone on one side of a cut, writes on both.
			dep.Network().Partition(victim.Addrs(), append(sites[0].Addrs(), sites[2].Addrs()...))
			put(victim, "minority")
			put(sites[0], "majority")
			dep.Run()
			dep.Network().Heal()
			dep.Run()

			assertReplicasIdentical(t, sites)
			if got := victim.Space().Len(); got != 5 {
				t.Fatalf("restarted site holds %d objects, want all 5", got)
			}
			if err := dep.ReconcileChannels(); err != nil {
				t.Fatal(err)
			}
			if got := victim.Addrs(); !reflect.DeepEqual(got, wantAddrs) {
				t.Fatalf("Addrs() after restart = %v, want %v", got, wantAddrs)
			}
			for _, addr := range victim.Addrs() {
				if node, ok := dep.Network().Node(addr); !ok || !node.Up() {
					t.Fatalf("restarted site's node %s: exists %v, not up", addr, ok)
				}
			}
		})
	}
}
