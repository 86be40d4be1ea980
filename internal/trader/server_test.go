package trader

import (
	"errors"
	"testing"
	"time"

	"mocca/internal/directory"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
)

// importOver runs GoImport and advances the simulated clock, on the test's
// own goroutine, until its callback has fired: at most 500 steps of 20 ms.
func importOver(t *testing.T, clk *vclock.Simulated, client *Client, req ImportRequest) ([]Offer, error) {
	t.Helper()
	var (
		offers []Offer
		err    error
		fired  bool
	)
	client.GoImport(req, func(found []Offer, e error) {
		offers, err, fired = found, e, true
	})
	for step := 0; !fired; step++ {
		if step == 500 {
			t.Fatal("the import did not complete within 10 simulated seconds")
		}
		clk.Advance(20 * time.Millisecond)
	}
	return offers, err
}

// TestTraderOverRPC: an offer exported at the trader is imported over rpc
// under a constraint, is gone once withdrawn, and an import the trader
// refuses reaches the client as its error.
func TestTraderOverRPC(t *testing.T) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(5))
	srv := NewServer(rpc.NewEndpoint(net.MustAddNode("trader"), clk), New())
	client := NewClient(rpc.NewEndpoint(net.MustAddNode("app"), clk), "trader")

	if err := srv.Trader().RegisterType("printing"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Trader().Export(Offer{
		ID:          "o1",
		ServiceType: "printing",
		Provider:    "ps1",
		Properties:  directory.NewAttributes("ppm", "12"),
	}); err != nil {
		t.Fatal(err)
	}

	offers, err := importOver(t, clk, client, ImportRequest{ServiceType: "printing", Constraint: "(ppm>=10)"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Provider != "ps1" || offers[0].Properties.First("ppm") != "12" {
		t.Fatalf("imported %v", offers)
	}

	if err := srv.Trader().Withdraw("o1"); err != nil {
		t.Fatal(err)
	}
	if offers, err := importOver(t, clk, client, ImportRequest{ServiceType: "printing"}); err != nil || len(offers) != 0 {
		t.Fatalf("after the withdrawal the import returned %v, %v", offers, err)
	}
	_, err = importOver(t, clk, client, ImportRequest{ServiceType: "scanning"})
	var remote *rpc.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("import of an unknown type: err = %v", err)
	}
}

func TestFederationOverRPC(t *testing.T) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(5))
	// Two trading domains (e.g. GMD and UPC) plus one importer.
	gmdEP := rpc.NewEndpoint(net.MustAddNode("trader-gmd"), clk)
	upcEP := rpc.NewEndpoint(net.MustAddNode("trader-upc"), clk)
	appEP := rpc.NewEndpoint(net.MustAddNode("app"), clk)

	gmdSrv := NewServer(gmdEP, New())
	upcSrv := NewServer(upcEP, New())
	for _, s := range []*Server{gmdSrv, upcSrv} {
		if err := s.Trader().RegisterType("conferencing"); err != nil {
			t.Fatal(err)
		}
	}
	if err := upcSrv.Trader().Export(Offer{ID: "upc-conf", ServiceType: "conferencing", Provider: "upc-mcu"}); err != nil {
		t.Fatal(err)
	}
	gmdSrv.Trader().LinkPeer("trader-upc")

	client := NewClient(appEP, "trader-gmd")
	offers, err := importOver(t, clk, client, ImportRequest{ServiceType: "conferencing"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].ID != "upc-conf" {
		t.Fatalf("federated import over rpc = %v", offers)
	}
	if st := gmdSrv.Trader().Stats(); st.Forwarded != 1 {
		t.Fatalf("Forwarded = %d, want 1", st.Forwarded)
	}
}

func TestFederationSurvivesDeadPeer(t *testing.T) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(5))
	gmdEP := rpc.NewEndpoint(net.MustAddNode("trader-gmd"), clk)
	appEP := rpc.NewEndpoint(net.MustAddNode("app"), clk)
	deadNode := net.MustAddNode("trader-dead")
	deadNode.SetDown(true)

	gmdSrv := NewServer(gmdEP, New())
	if err := gmdSrv.Trader().RegisterType("svc"); err != nil {
		t.Fatal(err)
	}
	if err := gmdSrv.Trader().Export(Offer{ID: "local", ServiceType: "svc"}); err != nil {
		t.Fatal(err)
	}
	gmdSrv.Trader().LinkPeer("trader-dead")

	client := NewClient(appEP, "trader-gmd")
	offers, err := importOver(t, clk, client, ImportRequest{ServiceType: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].ID != "local" {
		t.Fatalf("import with dead peer = %v", offers)
	}
}
