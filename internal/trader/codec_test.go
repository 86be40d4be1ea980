package trader

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mocca/internal/directory"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
	"mocca/internal/wire/wiretest"
)

// harnessOffer is the offer the workload harness exports per site and its
// trader lookup imports.
func harnessOffer(i int) Offer {
	site := fmt.Sprintf("s%03d", i)
	return Offer{ID: "wl-" + site, ServiceType: "cscw.collab", Provider: netsim.Address("load-" + site),
		Properties: directory.NewAttributes("site", site)}
}

// bodyCases covers the two binary messages: as the harness sends them and at
// the corners of each one's shape.
func bodyCases() []wiretest.Case {
	rng := rand.New(rand.NewSource(5))
	props := directory.Attributes{"ppm": {"12"}, "colour": {"yes", "ja"}, "org": {"gmd"}, "títle": {"naïve ☃"}, "queue": nil}
	emptyValued := wiretest.Reinserted(rng, props)
	emptyValued["queue"] = []string{}
	imported := importResp{Offers: []WireOffer{toWire(harnessOffer(0)), toWire(harnessOffer(1)), toWire(harnessOffer(2))}}
	return []wiretest.Case{
		wiretest.Of("importReq", importReq{ServiceType: "cscw.collab", MaxOffers: 3}),
		wiretest.Of("importReq/federated", importReq{ServiceType: "printing", Constraint: "(&(ppm>=10)(org=gmd))", MaxOffers: -1,
			OrderBy: "ppm", Importer: "jürgen", Hops: MaxFederationHops}),
		wiretest.Of("importReq/negative hops", importReq{Hops: -3}),
		wiretest.Of("importReq/zero", importReq{}),
		wiretest.Of("importResp", imported),
		wiretest.Of("importResp/wide offer", importResp{Offers: []WireOffer{{ID: "o1", ServiceType: "printing", Provider: "ps-köln", Properties: props}, {ID: "bare"}, {}}},
			importResp{Offers: []WireOffer{{ID: "o1", ServiceType: "printing", Provider: "ps-köln", Properties: emptyValued}, {ID: "bare", Properties: directory.Attributes{}}, {}}}),
		wiretest.Of("importResp/zero", importResp{}, importResp{Offers: []WireOffer{}}),
	}
}

func TestBodiesRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, bodyCases())
}

func TestBodiesGolden(t *testing.T) {
	wiretest.Golden(t, bodyCases(), map[string]string{
		"importReq": "d10000000b637363772e636f6c6c616200000000000000000000000300000000000000000000000000000000",
		"importResp": "d2000000000000000300000007776c2d733030300000000b637363772e636f6c6c6162000000096c6f61642d73303030" +
			"000000000000000100000004736974650000000000000001000000047330303000000007776c2d733030310000000b63" +
			"7363772e636f6c6c6162000000096c6f61642d7330303100000000000000010000000473697465000000000000000100" +
			"0000047330303100000007776c2d733030320000000b637363772e636f6c6c6162000000096c6f61642d733030320000" +
			"000000000001000000047369746500000000000000010000000473303032",
	})
}

func TestBodiesRejectDamage(t *testing.T) {
	huge := wire.AppendUint64(nil, 1<<60)                                                                 // each count, aimed at
	oneOffer := append(append([]byte{tagImportResp}, wire.AppendUint64(nil, 1)...), make([]byte, 3*4)...) // one offer, its strings empty
	wiretest.RejectDamage(t, bodyCases(), map[string][]byte{
		"offers":     append([]byte{tagImportResp}, huge...),
		"properties": append(bytes.Clone(oneOffer), huge...),
	})
	// The prefix is what it claims: closed with a zero count, a response.
	if err := new(importResp).UnmarshalBinary(append(bytes.Clone(oneOffer), wire.AppendUint64(nil, 0)...)); err != nil {
		t.Fatalf("the aimed bodies' prefix is not an importResp's: %v", err)
	}
}

// importRound exports the harness's sixteen offers, runs the harness's
// import through a Client — answered, and refused for an unknown type — and
// returns the trader, what came back and the bodies put on the wire by rpc
// method.
func importRound(tb testing.TB) (tr *Trader, offers [][]Offer, errs []error, bodies map[string][][]byte) {
	tb.Helper()
	bodies = map[string][][]byte{}
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(5))
	tap := wiretest.Tap(bodies)
	tr = New()
	if err := tr.RegisterType("cscw.collab"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := tr.Export(harnessOffer(i)); err != nil {
			tb.Fatal(err)
		}
	}
	NewServer(rpc.NewEndpoint(net.MustAddNode("trade-hub"), clk, tap), tr)
	client := NewClient(rpc.NewEndpoint(net.MustAddNode("load"), clk, tap), "trade-hub")
	collect := func(found []Offer, err error) {
		offers, errs = append(offers, found), append(errs, err)
	}
	client.GoImport(ImportRequest{ServiceType: "cscw.collab", MaxOffers: 3}, collect)
	client.GoImport(ImportRequest{ServiceType: "no.such.type"}, collect)
	clk.RunUntilIdle()
	return tr, offers, errs, bodies
}

// TestGoImportThroughTheClient: the asynchronous import the harness uses
// answers on the event goroutine with the first three offers in id order,
// and surfaces the server's refusal.
func TestGoImportThroughTheClient(t *testing.T) {
	_, offers, errs, _ := importRound(t)
	if len(offers) != 2 {
		t.Fatalf("%d of 2 imports completed", len(offers))
	}
	if errs[0] != nil || len(offers[0]) != 3 {
		t.Fatalf("import returned %v, %v", offers[0], errs[0])
	}
	for i, o := range offers[0] {
		if want := harnessOffer(i); o.ID != want.ID || o.Provider != want.Provider || o.Properties.First("site") != want.Properties.First("site") {
			t.Fatalf("offer %d is %+v, want %+v", i, o, want)
		}
	}
	if errs[1] == nil {
		t.Fatal("an import of an unknown type was not refused")
	}
}

// TestImportBodiesAreBinary: on a real import every non-empty body, request
// and reply, is a binary one.
func TestImportBodiesAreBinary(t *testing.T) {
	_, _, _, bodies := importRound(t)
	if len(bodies[MethodImport]) != 4 || len(bodies) != 1 {
		t.Fatalf("the round put %d %s bodies on the wire", len(bodies[MethodImport]), MethodImport)
	}
	for _, b := range bodies[MethodImport] {
		if len(b) > 0 && b[0] < 0x80 {
			t.Fatalf("%s body opens with %#x: %q", MethodImport, b[0], b)
		}
	}
}

// TestImportResultIsTheCallersOwn: matching runs on the stored offers'
// own property maps and only what an import returns is copied — so editing a
// returned offer, from the trader directly or from a federated forward,
// must leave the store as it was.
func TestImportResultIsTheCallersOwn(t *testing.T) {
	tr, _, _, _ := importRound(t)
	req := ImportRequest{ServiceType: "cscw.collab", Constraint: "(site=s00*)", OrderBy: "site", MaxOffers: 3}
	first, err := tr.Import(req)
	if err != nil || len(first) != 3 || first[0].ID != "wl-s009" {
		t.Fatalf("import returned %v, %v", first, err)
	}
	for i := range first {
		first[i].Properties["site"][0] = "edited"
		first[i].Properties.Add("extra", "x")
		delete(first[i].Properties, "site")
	}
	var again []Offer
	tr.ImportAsync(req, func(offers []Offer, err error) {
		if err != nil {
			t.Fatal(err)
		}
		again = offers
	})
	if len(again) != 3 {
		t.Fatalf("the second import returned %v", again)
	}
	for i, o := range again {
		want := fmt.Sprintf("s%03d", 9-i)
		if o.Properties.First("site") != want || len(o.Properties) != 1 {
			t.Fatalf("after the edit offer %d reads %v, want site %s alone", i, o.Properties, want)
		}
	}
}

// TestImportAllocations: an import of three from sixteen conforming offers
// copies three property maps, not sixteen.
func TestImportAllocations(t *testing.T) {
	tr, _, _, _ := importRound(t)
	req := ImportRequest{ServiceType: "cscw.collab", MaxOffers: 3}
	got := testing.AllocsPerRun(100, func() {
		if offers, err := tr.Import(req); err != nil || len(offers) != 3 {
			t.Fatal(offers, err)
		}
	})
	// Sixteen clones were 32 allocations of the parent's 64.
	if got > 30 {
		t.Fatalf("an import allocates %v times", got)
	}
}

// FuzzTraderBodies: whatever bytes arrive, a decoder either refuses them or
// yields a message that encodes and decodes back to itself.
func FuzzTraderBodies(f *testing.F) {
	_, _, _, bodies := importRound(f)
	for _, b := range bodies[MethodImport] {
		if len(b) > 0 {
			f.Add(b)
		}
	}
	for _, c := range bodyCases() {
		f.Add(c.Encode(f))
	}
	wiretest.Fuzz(f, []wiretest.Case{wiretest.Of("importReq", importReq{}), wiretest.Of("importResp", importResp{})})
}
