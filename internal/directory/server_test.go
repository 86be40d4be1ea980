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
	net    *netsim.Network
	client *Client
}

// newDSAFixture wires a DSA on node "dsa" and a client on node "ua".
func newDSAFixture(t *testing.T) *dsaFixture {
	t.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(11))

	dsaEP := rpc.NewEndpoint(net.MustAddNode("dsa"), clk)
	uaEP := rpc.NewEndpoint(net.MustAddNode("ua"), clk)

	NewServer(dsaEP, NewDIT())
	client := NewClient(uaEP, "dsa")

	return &dsaFixture{clk: clk, net: net, client: client}
}

// drive runs a blocking client op from a second goroutine while the test
// goroutine drives the simulated clock. A small real-time sleep between
// advances lets the op goroutine finish its (synchronous) setup before the
// simulated timeout can overtake it.
func (f *dsaFixture) drive(t *testing.T, op func() error) {
	t.Helper()
	if err := f.driveErr(t, op); err != nil {
		t.Fatal(err)
	}
}

func (f *dsaFixture) driveErr(t *testing.T, op func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case err := <-done:
			return err
		case <-deadline:
			t.Fatal("simulated op did not complete")
		default:
			time.Sleep(200 * time.Microsecond)
			f.clk.Advance(20 * time.Millisecond)
		}
	}
}

func TestClientAddReadSearch(t *testing.T) {
	f := newDSAFixture(t)
	f.drive(t, func() error { return f.client.Add("o=GMD", NewAttributes("objectclass", ClassOrganization)) })
	f.drive(t, func() error { return f.client.Add("ou=CSCW,o=GMD", NewAttributes("objectclass", ClassOrgUnit)) })
	f.drive(t, func() error {
		return f.client.Add("cn=Prinz,ou=CSCW,o=GMD", PersonEntry("Prinz", "Prinz", "prinz@gmd.de"))
	})

	var entry *Entry
	f.drive(t, func() error {
		var err error
		entry, err = f.client.Read("cn=Prinz,ou=CSCW,o=GMD")
		return err
	})
	if entry.Attrs.First("mail") != "prinz@gmd.de" {
		t.Fatalf("read entry attrs = %v", entry.Attrs)
	}

	var found []*Entry
	f.drive(t, func() error {
		var err error
		found, err = f.client.Search("o=GMD", ScopeSubtree, "(objectclass=person)")
		return err
	})
	if len(found) != 1 || !found[0].DN.Equal(MustParseDN("cn=Prinz,ou=CSCW,o=GMD")) {
		t.Fatalf("search found %v", found)
	}
}

func TestClientModifyDeleteList(t *testing.T) {
	f := newDSAFixture(t)
	f.drive(t, func() error { return f.client.Add("o=UPC", nil) })
	f.drive(t, func() error { return f.client.Add("cn=Navarro,o=UPC", PersonEntry("Navarro", "N", "")) })
	f.drive(t, func() error {
		return f.client.Modify("cn=Navarro,o=UPC", Modification{Op: "add", Attr: "title", Value: "prof"})
	})
	var entry *Entry
	f.drive(t, func() error {
		var err error
		entry, err = f.client.Read("cn=Navarro,o=UPC")
		return err
	})
	if !entry.Attrs.Has("title", "prof") {
		t.Fatal("modify not visible")
	}

	var kids []*Entry
	f.drive(t, func() error {
		var err error
		kids, err = f.client.List("o=UPC")
		return err
	})
	if len(kids) != 1 {
		t.Fatalf("list = %d", len(kids))
	}

	f.drive(t, func() error { return f.client.Delete("cn=Navarro,o=UPC") })
	err := f.driveErr(t, func() error {
		_, err := f.client.Read("cn=Navarro,o=UPC")
		return err
	})
	var remote *rpc.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "no such entry") {
		t.Fatalf("read after delete: %v", err)
	}
}

func TestRemoteErrorsSurface(t *testing.T) {
	f := newDSAFixture(t)
	err := f.driveErr(t, func() error { return f.client.Add("cn=X,ou=Missing,o=Gone", nil) })
	var remote *rpc.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	err = f.driveErr(t, func() error {
		_, err := f.client.Search("o=GMD", ScopeSubtree, "(((")
		return err
	})
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "filter") {
		t.Fatalf("bad filter err = %v", err)
	}
}
