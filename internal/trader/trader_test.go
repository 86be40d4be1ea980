package trader

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"mocca/internal/directory"
	"mocca/internal/netsim"
)

func newSeededTrader(t *testing.T) *Trader {
	t.Helper()
	tr := New()
	mustRegister := func(name string, supers ...string) {
		t.Helper()
		if err := tr.RegisterType(name, supers...); err != nil {
			t.Fatal(err)
		}
	}
	mustRegister("service")
	mustRegister("printing", "service")
	mustRegister("color-printing", "printing")
	mustRegister("conferencing", "service")

	offers := []Offer{
		{ID: "o1", ServiceType: "printing", Provider: "ps1",
			Properties: directory.NewAttributes("ppm", "10", "location", "floor1")},
		{ID: "o2", ServiceType: "color-printing", Provider: "ps2",
			Properties: directory.NewAttributes("ppm", "5", "location", "floor2")},
		{ID: "o3", ServiceType: "conferencing", Provider: "conf1",
			Properties: directory.NewAttributes("maxusers", "20")},
	}
	for _, o := range offers {
		if err := tr.Export(o); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestImportByTypeWithSubtypes(t *testing.T) {
	tr := newSeededTrader(t)
	got, err := tr.Import(ImportRequest{ServiceType: "printing"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("printing import = %d offers, want 2 (subtype included)", len(got))
	}
	got, err = tr.Import(ImportRequest{ServiceType: "color-printing"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "o2" {
		t.Fatalf("color-printing import = %v", got)
	}
	got, err = tr.Import(ImportRequest{ServiceType: "service"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("service import = %d offers, want 3", len(got))
	}
}

func TestImportConstraint(t *testing.T) {
	tr := newSeededTrader(t)
	got, err := tr.Import(ImportRequest{ServiceType: "printing", Constraint: "(ppm>=8)"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "o1" {
		t.Fatalf("constrained import = %v", got)
	}
	if _, err := tr.Import(ImportRequest{ServiceType: "printing", Constraint: "((("}); err == nil {
		t.Fatal("bad constraint accepted")
	}
}

func TestImportOrderingAndLimit(t *testing.T) {
	tr := newSeededTrader(t)
	got, err := tr.Import(ImportRequest{ServiceType: "printing", OrderBy: "ppm"})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != "o1" {
		t.Fatalf("order by ppm desc: first = %s, want o1", got[0].ID)
	}
	got, err = tr.Import(ImportRequest{ServiceType: "service", MaxOffers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("MaxOffers ignored: %d", len(got))
	}
}

func TestUnknownTypeErrors(t *testing.T) {
	tr := newSeededTrader(t)
	if _, err := tr.Import(ImportRequest{ServiceType: "nope"}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("import unknown type: %v", err)
	}
	if err := tr.Export(Offer{ID: "x", ServiceType: "nope"}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("export unknown type: %v", err)
	}
	if err := tr.RegisterType("sub", "nope"); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("register with unknown supertype: %v", err)
	}
	if err := tr.RegisterType("printing"); !errors.Is(err, ErrTypeExists) {
		t.Fatalf("duplicate type: %v", err)
	}
}

func TestWithdraw(t *testing.T) {
	tr := newSeededTrader(t)
	if err := tr.Withdraw("o1"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Withdraw("o1"); !errors.Is(err, ErrUnknownOffer) {
		t.Fatalf("double withdraw: %v", err)
	}
	got, err := tr.Import(ImportRequest{ServiceType: "printing"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("after withdraw: %d offers", len(got))
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
}

func TestModifyOffer(t *testing.T) {
	tr := newSeededTrader(t)
	if err := tr.ModifyOffer("o1", directory.NewAttributes("ppm", "99")); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Import(ImportRequest{ServiceType: "printing", Constraint: "(ppm>=99)"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "o1" {
		t.Fatalf("modified offer not matched: %v", got)
	}
	if err := tr.ModifyOffer("ghost", nil); !errors.Is(err, ErrUnknownOffer) {
		t.Fatalf("modify ghost: %v", err)
	}
}

func TestPolicyExcludes(t *testing.T) {
	tr := newSeededTrader(t)
	tr.AddPolicy(PolicyFunc{
		ID: "floor1-only",
		Fn: func(importer string, o Offer) bool {
			if importer != "visitor" {
				return true
			}
			return o.Properties.First("location") == "floor1"
		},
	})
	got, err := tr.Import(ImportRequest{ServiceType: "printing", Importer: "visitor"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "o1" {
		t.Fatalf("policy-filtered import = %v", got)
	}
	// Other importers see everything.
	got, err = tr.Import(ImportRequest{ServiceType: "printing", Importer: "staff"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("staff import = %d", len(got))
	}
	if st := tr.Stats(); st.Excluded != 1 {
		t.Fatalf("Excluded = %d, want 1", st.Excluded)
	}
}

// federate links the traders in-process: each one's Forwarder hands a
// forwarded query to the trader at the peer's address, which answers through
// its own ImportAsync. A peer not in the map is unreachable.
func federate(traders map[netsim.Address]*Trader) {
	for _, tr := range traders {
		tr.SetForwarder(func(peer netsim.Address, req ImportRequest, done func([]Offer, error)) {
			if p := traders[peer]; p != nil {
				p.ImportAsync(req, done)
				return
			}
			done(nil, fmt.Errorf("no trader at %s", peer))
		})
	}
}

// importAsync runs a federated query over in-process links, which answer
// before ImportAsync returns, and checks that done fired exactly once. The
// offers are lent to done, so it keeps a copy of their slice.
func importAsync(t *testing.T, tr *Trader, req ImportRequest) []Offer {
	t.Helper()
	var got []Offer
	calls := 0
	tr.ImportAsync(req, func(offers []Offer, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got, calls = slices.Clone(offers), calls+1
	})
	if calls != 1 {
		t.Fatalf("done fired %d times, want once", calls)
	}
	return got
}

func TestFederation(t *testing.T) {
	local, remote := New(), New()
	for _, tr := range []*Trader{local, remote} {
		if err := tr.RegisterType("printing"); err != nil {
			t.Fatal(err)
		}
	}
	if err := local.Export(Offer{ID: "l1", ServiceType: "printing", Provider: "local-ps"}); err != nil {
		t.Fatal(err)
	}
	if err := remote.Export(Offer{ID: "r1", ServiceType: "printing", Provider: "remote-ps"}); err != nil {
		t.Fatal(err)
	}
	local.LinkPeer("remote")
	local.LinkPeer("gone")
	federate(map[netsim.Address]*Trader{"local": local, "remote": remote})
	if got := importAsync(t, local, ImportRequest{ServiceType: "printing"}); len(got) != 2 {
		t.Fatalf("federated import = %d offers, want 2", len(got))
	}
	if st := local.Stats(); st.Forwarded != 2 {
		t.Fatalf("Forwarded = %d, want 2", st.Forwarded)
	}
	// Import answers from the trader's own offers only.
	if got, err := local.Import(ImportRequest{ServiceType: "printing"}); err != nil || len(got) != 1 || got[0].ID != "l1" {
		t.Fatalf("local import = %v, %v; want l1 alone", got, err)
	}
}

func TestHopLimitStopsLoops(t *testing.T) {
	a, b := New(), New()
	for _, tr := range []*Trader{a, b} {
		if err := tr.RegisterType("svc"); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Export(Offer{ID: "a1", ServiceType: "svc"}); err != nil {
		t.Fatal(err)
	}
	// a and b link to each other: without the hop limit this recurses
	// forever.
	a.LinkPeer("b")
	b.LinkPeer("a")
	federate(map[netsim.Address]*Trader{"a": a, "b": b})

	got := importAsync(t, a, ImportRequest{ServiceType: "svc"})
	if len(got) != 1 || got[0].ID != "a1" {
		t.Fatalf("looped federation = %v", got)
	}
	if fa, fb := a.Stats().Forwarded, b.Stats().Forwarded; fa+fb != MaxFederationHops {
		t.Fatalf("the query was forwarded %d+%d times, want %d in all", fa, fb, MaxFederationHops)
	}
}

func TestDedupeAcrossFederation(t *testing.T) {
	a, b := New(), New()
	for _, tr := range []*Trader{a, b} {
		if err := tr.RegisterType("svc"); err != nil {
			t.Fatal(err)
		}
	}
	shared := Offer{ID: "dup", ServiceType: "svc"}
	if err := a.Export(shared); err != nil {
		t.Fatal(err)
	}
	if err := b.Export(shared); err != nil {
		t.Fatal(err)
	}
	a.LinkPeer("b")
	federate(map[netsim.Address]*Trader{"a": a, "b": b})
	if got := importAsync(t, a, ImportRequest{ServiceType: "svc"}); len(got) != 1 {
		t.Fatalf("dedupe failed: %d copies", len(got))
	}
}

// TestFederationRepliesConcurrently: peers that answer from goroutines of
// their own meet in one aggregate, and done fires once, with every offer.
func TestFederationRepliesConcurrently(t *testing.T) {
	const peers = 8
	hub := New()
	traders := map[netsim.Address]*Trader{}
	for i := range peers + 1 {
		tr := hub
		if i > 0 {
			tr = New()
			addr := netsim.Address(fmt.Sprintf("peer%d", i))
			traders[addr] = tr
			hub.LinkPeer(addr)
		}
		if err := tr.RegisterType("svc"); err != nil {
			t.Fatal(err)
		}
		if err := tr.Export(Offer{ID: fmt.Sprintf("o%d", i), ServiceType: "svc"}); err != nil {
			t.Fatal(err)
		}
	}
	var answering sync.WaitGroup
	hub.SetForwarder(func(peer netsim.Address, req ImportRequest, done func([]Offer, error)) {
		answering.Add(1)
		go func() {
			defer answering.Done()
			traders[peer].ImportAsync(req, done)
		}()
	})
	results := make(chan []Offer, 2) // room for a second call, which the test must see, not block
	hub.ImportAsync(ImportRequest{ServiceType: "svc"}, func(offers []Offer, err error) {
		if err != nil {
			t.Error(err)
		}
		results <- slices.Clone(offers) // lent to done: kept as a copy
	})
	got := <-results
	answering.Wait()
	if len(results) != 0 {
		t.Fatal("done fired more than once")
	}
	if len(got) != peers+1 {
		t.Fatalf("federated import = %d offers, want %d", len(got), peers+1)
	}
}

func TestManyOffersScale(t *testing.T) {
	tr := New()
	if err := tr.RegisterType("svc"); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		err := tr.Export(Offer{
			ID:          fmt.Sprintf("o%04d", i),
			ServiceType: "svc",
			Properties:  directory.NewAttributes("load", fmt.Sprintf("%d", i%100)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := tr.Import(ImportRequest{ServiceType: "svc", Constraint: "(load<=4)", OrderBy: "load", MaxOffers: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("limited import = %d", len(got))
	}
	// Descending order by load, constrained to load<=4: all ten must be 4.
	for _, o := range got {
		if v := o.Properties.First("load"); v != "4" {
			t.Fatalf("ordering wrong: got load %s, want 4", v)
		}
	}
}

// TestReexportIsFiledUnderItsNewType: an offer exported again under
// another type is filed under that type alone, so an import of a common
// supertype meets it once and an import of its old type not at all.
func TestReexportIsFiledUnderItsNewType(t *testing.T) {
	tr := newSeededTrader(t)
	if err := tr.Export(Offer{ID: "o1", ServiceType: "conferencing", Provider: "conf2"}); err != nil {
		t.Fatal(err)
	}
	all, err := tr.Import(ImportRequest{ServiceType: "service"})
	if err != nil || len(all) != 3 {
		t.Fatalf("import of the supertype = %v, %v; want o1, o2 and o3 once each", all, err)
	}
	printing, err := tr.Import(ImportRequest{ServiceType: "printing"})
	if err != nil || len(printing) != 1 || printing[0].ID != "o2" {
		t.Fatalf("import of o1's old type = %v, %v; want o2 alone", printing, err)
	}
}
