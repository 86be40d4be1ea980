package mocca

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mocca/internal/channel"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
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

// TestCallIDsUniqueAcrossRestart: a site crashes with a call in flight and
// restarts at once, so the call's reply reaches the new incarnation's
// endpoint. That reply must complete none of the new endpoint's calls —
// each of which must see its own reply — and no two calls the deployment
// sends may share a correlation id.
func TestCallIDsUniqueAcrossRestart(t *testing.T) {
	callers := map[string]netsim.Address{} // correlation id → the node that sent it
	var dups []string
	staleIn := 0
	tap := channel.WithInterceptor(func(f *channel.Frame) error {
		switch {
		case f.Dir == channel.Outbound && f.Env.Kind == "rpc.req":
			if prev, ok := callers[f.Env.Corr]; ok {
				dups = append(dups, fmt.Sprintf("%q from %s and %s", f.Env.Corr, prev, f.Local))
			}
			callers[f.Env.Corr] = f.Local
		case f.Dir == channel.Inbound && f.Env.Kind == "rpc.rep" && string(f.Env.Body) == "old":
			staleIn++
		}
		return nil
	})
	dep := NewDeployment(WithSeed(7), func(d *Deployment) { d.chOpts = append(d.chOpts, tap) })
	server := dep.AddSite("s0", "s0.net")
	victim := dep.AddSite("s1", "s1.net")
	if _, err := victim.Space().Put("ada", SharedSchemaName, map[string]string{"title": "warm-up"}); err != nil {
		t.Fatal(err)
	}
	dep.Run()
	echo := func(r rpc.Request) ([]byte, error) { return r.Body, nil }
	server.replEP.MustRegister("test.echo", echo)

	// A reply's body is lent to the callback: each keeps a copy.
	kept := func(r rpc.Result) rpc.Result { return rpc.Result{Body: bytes.Clone(r.Body), Err: r.Err} }
	var old []rpc.Result
	victim.replEP.Go(server.replAddr(), "test.echo", []byte("old"), func(r rpc.Result) { old = append(old, kept(r)) })
	// The request lands at 20 ms and its reply leaves at once; at 30 ms the
	// reply is on the wire when the caller dies and comes back.
	dep.Advance(30 * time.Millisecond)
	victim.Crash()
	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	const calls = 200
	got := make([][]rpc.Result, calls)
	for i := range calls {
		victim.replEP.Go(server.replAddr(), "test.echo", []byte(fmt.Sprint("new-", i)), func(r rpc.Result) { got[i] = append(got[i], kept(r)) })
	}
	dep.Run()

	if staleIn != 1 {
		t.Fatalf("the old incarnation's reply reached the new endpoint %d times, want once", staleIn)
	}
	if len(old) != 1 || !errors.Is(old[0].Err, rpc.ErrTimeout) {
		t.Fatalf("the crashed endpoint's call completed %d times (%v), want once with ErrTimeout", len(old), old)
	}
	for i, rs := range got {
		if want := fmt.Sprint("new-", i); len(rs) != 1 || rs[0].Err != nil || string(rs[0].Body) != want {
			t.Fatalf("new call %d completed with %v, want once with its own reply %q", i, rs, want)
		}
	}
	if len(dups) > 0 {
		t.Fatalf("%d correlation ids sent twice, e.g. %s", len(dups), dups[0])
	}
	if len(callers) < calls {
		t.Fatalf("tapped %d calls, want at least %d", len(callers), calls)
	}
}
