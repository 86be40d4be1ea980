package trader

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mocca/internal/directory"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire/wiretest"
)

// raceEnabled is set under the race detector, whose sync.Pool drops a
// share of its Puts, so allocation counts are not held there.
var raceEnabled bool

// harnessOffer is the offer the workload harness exports per site and its
// trader lookup imports.
func harnessOffer(i int) Offer {
	site := fmt.Sprintf("s%03d", i)
	return Offer{ID: "wl-" + site, ServiceType: "cscw.collab", Provider: netsim.Address("load-" + site),
		Properties: directory.NewAttributes("site", site)}
}

// bodyCases covers every trading message: as the harness sends it and at
// the corners of each one's shape.
// Offers are in the form they decode to: properties never nil.
func bodyCases() []wiretest.Case {
	rng := rand.New(rand.NewSource(5))
	props := directory.Attributes{"ppm": {"12"}, "colour": {"yes", "ja"}, "org": {"gmd"}, "títle": {"naïve ☃"}, "queue": nil}
	emptyValued := wiretest.Reinserted(rng, props)
	emptyValued["queue"] = []string{}
	imported := importResp{Offers: []Offer{harnessOffer(0), harnessOffer(1), harnessOffer(2)}}
	printer := Offer{ID: "o1", ServiceType: "printing", Provider: "ps-köln", Properties: props}
	bare, zero := Offer{ID: "bare", Properties: directory.Attributes{}}, Offer{Properties: directory.Attributes{}}
	return []wiretest.Case{
		wiretest.Of("importReq", importReq{ServiceType: "cscw.collab", MaxOffers: 3}),
		wiretest.Of("importReq/federated", importReq{ServiceType: "printing", Constraint: "(&(ppm>=10)(org=gmd))", MaxOffers: -1,
			OrderBy: "ppm", Importer: "jürgen", Hops: MaxFederationHops}),
		wiretest.Of("importReq/negative hops", importReq{Hops: -3}),
		wiretest.Of("importReq/zero", importReq{}),
		wiretest.Of("importResp", imported),
		wiretest.Of("importResp/wide offer", importResp{Offers: []Offer{printer, bare, zero}},
			importResp{Offers: []Offer{{ID: "o1", ServiceType: "printing", Provider: "ps-köln", Properties: emptyValued}, {ID: "bare"}, {}}}),
		wiretest.Of("importResp/zero", importResp{}, importResp{Offers: []Offer{}}),
	}
}

func TestBodiesRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, bodyCases())
}

func TestBodiesGolden(t *testing.T) {
	wiretest.Golden(t, bodyCases(), map[string]string{
		"importReq": "d60b637363772e636f6c6c61620003000000",
		"importResp": "d70307776c2d733030300b637363772e636f6c6c6162096c6f61642d7330303001047369746501047330303007776c2d" +
			"733030310b637363772e636f6c6c6162096c6f61642d7330303101047369746501047330303107776c2d733030320b63" +
			"7363772e636f6c6c6162096c6f61642d73303032010473697465010473303032",
	})
}

func TestBodiesRejectDamage(t *testing.T) {
	oneOffer := []byte{tagImportResp, 1, 0, 0, 0} // one offer, its strings empty
	wiretest.RejectDamage(t, bodyCases(), map[string][]byte{
		"offers":     {tagImportResp},
		"properties": oneOffer,
	})
	// The prefix is what it claims: closed with a zero count, a response.
	if err := new(importResp).UnmarshalBinary(append(bytes.Clone(oneOffer), 0)); err != nil {
		t.Fatalf("the aimed bodies' prefix is not an importResp's: %v", err)
	}
}

// TestRetiredBodiesRefused: an import or its answer as the code before
// varints wrote it, and every other retired body, fails on its first byte.
func TestRetiredBodiesRefused(t *testing.T) {
	wiretest.RetiredRefused(t, "testdata/retired-bodies.txt", bodyCases())
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
	fired := false
	tr.ImportAsync(req, func(again []Offer, err error) {
		fired = true // the offers are lent until done returns: read here
		if err != nil || len(again) != 3 {
			t.Fatalf("the second import returned %v, %v", again, err)
		}
		for i, o := range again {
			want := fmt.Sprintf("s%03d", 9-i)
			if o.Properties.First("site") != want || len(o.Properties) != 1 {
				t.Fatalf("after the edit offer %d reads %v, want site %s alone", i, o.Properties, want)
			}
		}
	})
	if !fired {
		t.Fatal("the second import did not answer")
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

// TestImportHandlerLendsOffers: ImportAsync lends the store's offers to its
// callback, and the trader.import handler encodes them there into a pooled
// buffer — so answering with sixteen offers costs no more allocations than
// answering with one, where a copy of each offer would cost two (its
// property map and a value slice) and a buffer grown from nil one per
// doubling.
func TestImportHandlerLendsOffers(t *testing.T) {
	tr, _, _, _ := importRound(t)
	tr.ImportAsync(ImportRequest{ServiceType: "cscw.collab"}, func(offers []Offer, err error) {
		if err != nil || len(offers) != 16 {
			t.Fatalf("import returned %d offers, %v", len(offers), err)
		}
		for _, o := range offers {
			if reflect.ValueOf(o.Properties).UnsafePointer() != reflect.ValueOf(tr.offers[o.ID].Properties).UnsafePointer() {
				t.Fatalf("offer %s was copied for a callback that only reads it", o.ID)
			}
		}
	})
	if raceEnabled {
		return // allocation counts are not held under -race
	}
	s := &Server{trader: tr}
	serve := func(max int) float64 {
		body, _ := importReq{ServiceType: "cscw.collab", MaxOffers: max}.AppendBinary(nil)
		r := rpc.Request{From: "load", Method: MethodImport, Body: body}
		return testing.AllocsPerRun(100, func() {
			s.serveImport(r, func(answer []byte, err error) {
				if err != nil || len(answer) == 0 {
					t.Fatalf("the handler answered %x, %v", answer, err)
				}
			})
		})
	}
	// The request's decoded service type, the callback handed to
	// ImportAsync and the test's own reply func.
	const pinned = 3
	if one, all := serve(1), serve(16); one > pinned || all > pinned {
		t.Fatalf("answering with one offer allocates %v times, with sixteen %v; want at most %v", one, all, pinned)
	}
}

// TestImportCostsNoMoreForMoreCandidates: an import of three from sixteen
// conforming offers allocates no more than an import from a store of one.
// Its candidates are collected into pooled scratch and ordered in place;
// a fresh slice per import, a map to dedupe them or a reflective sort
// would each cost more with sixteen than with one.
func TestImportCostsNoMoreForMoreCandidates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not held under -race")
	}
	sixteen, _, _, _ := importRound(t)
	one := New()
	if err := one.RegisterType("cscw.collab"); err != nil {
		t.Fatal(err)
	}
	if err := one.Export(harnessOffer(0)); err != nil {
		t.Fatal(err)
	}
	importFrom := func(tr *Trader, req ImportRequest, want int) float64 {
		return testing.AllocsPerRun(100, func() {
			tr.ImportAsync(req, func(offers []Offer, err error) {
				if err != nil || len(offers) != want {
					t.Fatalf("import returned %d offers, %v; want %d", len(offers), err, want)
				}
			})
		})
	}
	for _, orderBy := range []string{"", "site"} {
		few := importFrom(sixteen, ImportRequest{ServiceType: "cscw.collab", OrderBy: orderBy, MaxOffers: 3}, 3)
		single := importFrom(one, ImportRequest{ServiceType: "cscw.collab", OrderBy: orderBy}, 1)
		if few > single {
			t.Fatalf("ordered by %q, three of sixteen offers allocate %v times, one of one %v", orderBy, few, single)
		}
	}
}

// FuzzTraderBodies: whatever bytes arrive, a decoder either refuses them or
// yields a message that encodes and decodes back to itself. The seeds
// include the bodies an older peer sent for the retired messages.
func FuzzTraderBodies(f *testing.F) {
	_, _, _, bodies := importRound(f)
	for _, list := range bodies {
		for _, b := range list {
			f.Add(b)
		}
	}
	for _, c := range bodyCases() {
		f.Add(c.Encode(f))
	}
	for _, b := range wiretest.Retired(f, "testdata/retired-bodies.txt") {
		f.Add(b)
	}
	wiretest.Fuzz(f, []wiretest.Case{wiretest.Of("importReq", importReq{}), wiretest.Of("importResp", importResp{})})
}
