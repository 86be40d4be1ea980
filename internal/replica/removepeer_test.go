package replica

import (
	"testing"

	"mocca/internal/netsim"
)

// TestRemovePeerReportsLivePeers: RemovePeer drops exactly the named
// address and reports whether it was a peer, so view churn can call it
// for an address already gone.
func TestRemovePeerReportsLivePeers(t *testing.T) {
	f := newManualFixture(t, 1)
	rep := f.reps[0]
	rep.AddPeer("repl-s1")
	rep.AddPeer("repl-s2")
	rep.AddPeer("repl-s1") // a second add of a peer is a no-op
	if got := rep.Peers(); len(got) != 2 {
		t.Fatalf("Peers() = %v, want two", got)
	}
	if !rep.RemovePeer("repl-s2") {
		t.Fatal("RemovePeer(repl-s2) = false for a live peer")
	}
	if got := rep.Peers(); len(got) != 1 || got[0] != netsim.Address("repl-s1") {
		t.Fatalf("Peers() = %v after removal, want [repl-s1]", got)
	}
	if rep.RemovePeer("repl-s2") {
		t.Fatal("RemovePeer(repl-s2) = true for an already-removed peer")
	}
}
