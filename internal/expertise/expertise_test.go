package expertise

import (
	"testing"

	"mocca/internal/org"
)

func newSkilledModel(t *testing.T) *Model {
	t.Helper()
	m := NewModel()
	m.SetCapability("ada", "tunnel-engineering", LevelExpert)
	m.SetCapability("ada", "project-management", LevelProficient)
	m.SetCapability("ben", "tunnel-engineering", LevelCompetent)
	m.SetCapability("ben", "geology", LevelExpert)
	m.SetCapability("carol", "project-management", LevelAuthority)
	return m
}

func TestProfileCRUD(t *testing.T) {
	m := newSkilledModel(t)
	if got := m.profiles["ada"].Capabilities["tunnel-engineering"]; got != LevelExpert {
		t.Fatalf("ada's tunnel-engineering = %v", got)
	}
	// Level 0 removes.
	m.SetCapability("ada", "tunnel-engineering", 0)
	if _, ok := m.profiles["ada"].Capabilities["tunnel-engineering"]; ok {
		t.Fatal("level 0 did not remove skill")
	}
	if got := m.FindCapable("tunnel-engineering", LevelNovice); len(got) != 1 || got[0] != "ben" {
		t.Fatalf("capable after removal = %v", got)
	}
}

func TestFindCapableRanked(t *testing.T) {
	m := newSkilledModel(t)
	got := m.FindCapable("tunnel-engineering", LevelCompetent)
	if len(got) != 2 || got[0] != "ada" || got[1] != "ben" {
		t.Fatalf("capable = %v", got)
	}
	got = m.FindCapable("tunnel-engineering", LevelExpert)
	if len(got) != 1 || got[0] != "ada" {
		t.Fatalf("experts = %v", got)
	}
	if got := m.FindCapable("basket-weaving", LevelNovice); len(got) != 0 {
		t.Fatalf("unknown skill = %v", got)
	}
}

func TestAddResponsibilityIdempotent(t *testing.T) {
	m := NewModel()
	m.AddResponsibility("x", "r", "src")
	m.AddResponsibility("x", "r", "src")
	m.AddResponsibility("x", "r", "other")
	if got := m.profiles["x"].Responsibilities; len(got) != 2 {
		t.Fatalf("responsibilities = %v", got)
	}
}

func TestImportFromOrgModel(t *testing.T) {
	kb := org.NewKnowledgeBase()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(kb.AddObject(org.Object{ID: "gmd", Kind: org.KindOrg}))
	must(kb.AddObject(org.Object{ID: "prinz", Kind: org.KindPerson, Org: "gmd"}))
	must(kb.AddObject(org.Object{ID: "group-leader", Kind: org.KindRole, Org: "gmd"}))
	must(kb.Relate("prinz", org.RelFills, "group-leader"))

	m := NewModel()
	m.ImportResponsibilities(kb)
	got := m.profiles["prinz"].Responsibilities
	if len(got) != 1 || got[0].Name != "group-leader" || got[0].Source != "org:group-leader" {
		t.Fatalf("imported = %+v", got)
	}
	// Re-import stays idempotent.
	m.ImportResponsibilities(kb)
	if got := m.profiles["prinz"].Responsibilities; len(got) != 1 {
		t.Fatal("re-import duplicated responsibilities")
	}
}
