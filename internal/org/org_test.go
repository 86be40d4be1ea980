package org

import (
	"errors"
	"testing"

	"mocca/internal/directory"
	"mocca/internal/trader"
)

// newTunnelKB models the paper's §3 example: "the management of a large
// scale engineering project (e.g. building the Channel Tunnel)".
func newTunnelKB(t *testing.T) *KnowledgeBase {
	t.Helper()
	kb := NewKnowledgeBase()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(kb.AddObject(Object{ID: "tml", Kind: KindOrg, Name: "TransManche Link"}))
	must(kb.AddObject(Object{ID: "eurotunnel", Kind: KindOrg, Name: "Eurotunnel"}))
	must(kb.AddObject(Object{ID: "eng-uk", Kind: KindUnit, Name: "UK Engineering", Org: "tml"}))
	must(kb.AddObject(Object{ID: "eng-fr", Kind: KindUnit, Name: "FR Engineering", Org: "tml"}))
	must(kb.AddObject(Object{ID: "ada", Kind: KindPerson, Name: "Ada", Org: "tml"}))
	must(kb.AddObject(Object{ID: "ben", Kind: KindPerson, Name: "Ben", Org: "tml"}))
	must(kb.AddObject(Object{ID: "chief-engineer", Kind: KindRole, Name: "Chief Engineer", Org: "tml"}))
	must(kb.AddObject(Object{ID: "tunnel-project", Kind: KindProject, Name: "Channel Tunnel", Org: "tml"}))
	must(kb.AddObject(Object{ID: "tbm-1", Kind: KindResource, Name: "Boring Machine 1", Org: "tml"}))

	must(kb.Relate("eng-uk", RelPartOf, "tml"))
	must(kb.Relate("eng-fr", RelPartOf, "tml"))
	must(kb.Relate("ada", RelMemberOf, "eng-uk"))
	must(kb.Relate("ben", RelMemberOf, "eng-fr"))
	must(kb.Relate("ben", RelReportsTo, "ada"))
	must(kb.Relate("ada", RelFills, "chief-engineer"))
	must(kb.Relate("chief-engineer", RelResponsibleFor, "tunnel-project"))
	must(kb.Relate("tbm-1", RelAllocatedTo, "tunnel-project"))
	return kb
}

func TestObjectLifecycle(t *testing.T) {
	kb := newTunnelKB(t)
	people := kb.ObjectsByKind(KindPerson)
	if len(people) != 2 || people[0].ID != "ada" || people[0].Name != "Ada" || people[1].ID != "ben" {
		t.Fatalf("people = %+v", people)
	}
	// Returned objects are copies.
	people[0].Attrs.Add("tampered", "yes")
	if again := kb.ObjectsByKind(KindPerson); again[0].Attrs.Has("tampered", "") {
		t.Fatal("ObjectsByKind returned aliased storage")
	}
	if err := kb.AddObject(Object{ID: "ada", Kind: KindPerson}); !errors.Is(err, ErrObjectExists) {
		t.Fatalf("duplicate add: %v", err)
	}
	if kb.OrgOf("ada") != "tml" || kb.OrgOf("tml") != "tml" || kb.OrgOf("ghost") != "" {
		t.Fatalf("OrgOf: ada %q, tml %q, ghost %q", kb.OrgOf("ada"), kb.OrgOf("tml"), kb.OrgOf("ghost"))
	}
}

func TestRelations(t *testing.T) {
	kb := newTunnelKB(t)
	if got := kb.Related("ada", RelFills); len(got) != 1 || got[0] != "chief-engineer" {
		t.Fatalf("Related(fills) = %v", got)
	}
	if got := kb.Related("ada", RelMemberOf); len(got) != 1 || got[0] != "eng-uk" {
		t.Fatalf("Related(member-of) = %v", got)
	}
	if err := kb.Relate("ada", RelMemberOf, "ghost"); !errors.Is(err, ErrBadRelation) {
		t.Fatalf("relate to ghost: %v", err)
	}
	// Idempotent.
	if err := kb.Relate("ada", RelFills, "chief-engineer"); err != nil {
		t.Fatal(err)
	}
	if got := kb.Related("ada", RelFills); len(got) != 1 {
		t.Fatalf("duplicate relation stored: %v", got)
	}
}

func TestPolicyCompatibility(t *testing.T) {
	kb := newTunnelKB(t)
	kb.SetPolicy("tml", "data-sharing", "open")
	kb.SetPolicy("eurotunnel", "data-sharing", "open")
	if !kb.Compatible("tml", "eurotunnel") {
		t.Fatal("matching policies reported incompatible")
	}
	kb.SetPolicy("eurotunnel", "data-sharing", "restricted")
	if kb.Compatible("tml", "eurotunnel") {
		t.Fatal("conflicting policies reported compatible")
	}
	// Keys only one side declares do not conflict.
	kb.SetPolicy("eurotunnel", "data-sharing", "open")
	kb.SetPolicy("eurotunnel", "security", "high")
	if !kb.Compatible("tml", "eurotunnel") {
		t.Fatal("one-sided policy key caused incompatibility")
	}
}

func TestTradingPolicyFromKB(t *testing.T) {
	kb := newTunnelKB(t)
	kb.SetPolicy("tml", "data-sharing", "open")
	kb.SetPolicy("eurotunnel", "data-sharing", "restricted")

	tr := trader.New()
	if err := tr.RegisterType("printing"); err != nil {
		t.Fatal(err)
	}
	tr.AddPolicy(TradingPolicy(kb))

	offers := []trader.Offer{
		{ID: "o-tml", ServiceType: "printing", Properties: directory.NewAttributes("org", "tml")},
		{ID: "o-euro", ServiceType: "printing", Properties: directory.NewAttributes("org", "eurotunnel")},
		{ID: "o-open", ServiceType: "printing"}, // unmodelled provider
	}
	for _, o := range offers {
		if err := tr.Export(o); err != nil {
			t.Fatal(err)
		}
	}

	// ada belongs to tml: sees tml's offer and the unmodelled one, but not
	// eurotunnel's (incompatible data-sharing policy).
	got, err := tr.Import(trader.ImportRequest{ServiceType: "printing", Importer: "ada"})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, o := range got {
		ids[o.ID] = true
	}
	if !ids["o-tml"] || !ids["o-open"] || ids["o-euro"] {
		t.Fatalf("ada sees %v", ids)
	}

	// An importer unknown to the KB sees only unmodelled providers.
	got, err = tr.Import(trader.ImportRequest{ServiceType: "printing", Importer: "stranger"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "o-open" {
		t.Fatalf("stranger sees %v", got)
	}
}

func TestExportToDirectory(t *testing.T) {
	kb := newTunnelKB(t)
	dit := directory.NewDIT()
	if err := ExportToDirectory(kb, dit); err != nil {
		t.Fatal(err)
	}
	// Organisation entry exists.
	if _, err := dit.Read(directory.MustParseDN("o=tml")); err != nil {
		t.Fatal(err)
	}
	// Person entry under its kind subtree.
	e, err := dit.Read(directory.MustParseDN("cn=ada,ou=person,o=tml"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Attrs.First("orgobjectid") != "ada" {
		t.Fatalf("entry attrs = %v", e.Attrs)
	}
	// Search by class finds people.
	found, err := dit.Search(directory.SearchRequest{
		Base:   directory.MustParseDN("o=tml"),
		Scope:  directory.ScopeSubtree,
		Filter: directory.MustParseFilter("(objectclass=person)"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 2 {
		t.Fatalf("found %d persons", len(found))
	}
	// Idempotent re-export.
	if err := ExportToDirectory(kb, dit); err != nil {
		t.Fatalf("re-export: %v", err)
	}
}
