package directory

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
)

type dsaFixture struct {
	clk    *vclock.Simulated
	client *Client
}

// newDSAFixture serves seedDIT's tree from a DSA on node "dsa" to a client
// on node "ua".
func newDSAFixture(t *testing.T) *dsaFixture {
	t.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(11))
	NewServer(rpc.NewEndpoint(net.MustAddNode("dsa"), clk), seedDIT(t))
	return &dsaFixture{clk: clk, client: NewClient(rpc.NewEndpoint(net.MustAddNode("ua"), clk), "dsa")}
}

// search runs GoSearch and advances the simulated clock, on the test's own
// goroutine, until its callback has fired: at most 500 steps of 20 ms.
func (f *dsaFixture) search(t *testing.T, base string, scope Scope, filter string) ([]*Entry, error) {
	t.Helper()
	var (
		found []*Entry
		err   error
		fired bool
	)
	f.client.GoSearch(base, scope, filter, 0, func(entries []*Entry, e error) {
		found, err, fired = entries, e, true
	})
	for step := 0; !fired; step++ {
		if step == 500 {
			t.Fatal("the search did not complete within 10 simulated seconds")
		}
		f.clk.Advance(20 * time.Millisecond)
	}
	return found, err
}

// TestClientAddReadSearch: entries added to a DSA's tree are read back, with
// their attributes, by a client's search.
func TestClientAddReadSearch(t *testing.T) {
	f := newDSAFixture(t)
	found, err := f.search(t, "o=GMD", ScopeSubtree, "(&(objectclass=person)(mail=prinz@gmd.de))")
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || !found[0].DN.Equal(MustParseDN("cn=Prinz,ou=CSCW,o=GMD")) || found[0].Attrs.First("mail") != "prinz@gmd.de" {
		t.Fatalf("search found %v", found)
	}
	found, err = f.search(t, "o=GMD", ScopeSubtree, "(objectclass=person)")
	if err != nil || len(found) != 3 {
		t.Fatalf("search for GMD's people found %v, %v", found, err)
	}
}

// TestRemoteErrorsSurface: a search the DSA refuses, for a missing base or
// a malformed filter, reaches the client as the DSA's error.
func TestRemoteErrorsSurface(t *testing.T) {
	f := newDSAFixture(t)
	_, err := f.search(t, "ou=Missing,o=Gone", ScopeSubtree, "(objectclass=person)")
	var remote *rpc.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "no such entry") {
		t.Fatalf("missing base err = %v, want RemoteError", err)
	}
	_, err = f.search(t, "o=GMD", ScopeSubtree, "(((")
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "filter") {
		t.Fatalf("bad filter err = %v", err)
	}
}
