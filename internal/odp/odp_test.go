package odp

import (
	"testing"
	"testing/quick"
)

func TestViewpointStringAndParse(t *testing.T) {
	for _, v := range Viewpoints() {
		got, err := ParseViewpoint(v.String())
		if err != nil {
			t.Fatalf("ParseViewpoint(%q): %v", v.String(), err)
		}
		if got != v {
			t.Fatalf("round-trip %v -> %v", v, got)
		}
	}
	if _, err := ParseViewpoint("bogus"); err == nil {
		t.Fatal("ParseViewpoint accepted bogus")
	}
}

func TestFiveViewpoints(t *testing.T) {
	if len(Viewpoints()) != 5 {
		t.Fatalf("ODP defines five viewpoints, got %d", len(Viewpoints()))
	}
}

func TestTransparencyFamilies(t *testing.T) {
	if len(ODPTransparencies()) != 6 {
		t.Fatalf("ODP transparencies = %d, want 6", len(ODPTransparencies()))
	}
	if len(CSCWTransparencies()) != 4 {
		t.Fatalf("CSCW transparencies = %d, want 4 (org, time, view, activity)", len(CSCWTransparencies()))
	}
	// The two families must not overlap.
	seen := map[Transparency]bool{}
	for _, t2 := range append(ODPTransparencies(), CSCWTransparencies()...) {
		if seen[t2] {
			t.Fatalf("transparency %v in both families", t2)
		}
		seen[t2] = true
	}
}

func TestMaskOperations(t *testing.T) {
	m := MaskOf(Time, View)
	if !m.Has(Time) || !m.Has(View) || m.Has(Access) {
		t.Fatalf("mask membership wrong: %v", m)
	}
	m = m.With(Access).Without(View)
	if !m.Has(Access) || m.Has(View) {
		t.Fatalf("With/Without wrong: %v", m)
	}
	if got := MaskOf().String(); got != "none" {
		t.Fatalf("empty mask = %q", got)
	}
}

func TestQuickMaskWithHas(t *testing.T) {
	f := func(raw uint8) bool {
		t1 := Transparency(raw%10) + 1
		m := Mask(0).With(t1)
		return m.Has(t1) && !Mask(0).Has(t1) && m.Without(t1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBindingSatisfies(t *testing.T) {
	b := Binding{
		ID:       "b1",
		Client:   "editor",
		Server:   "store",
		Kind:     Interrogation,
		Provides: MaskOf(Access, Location, Time),
	}
	if !b.Satisfies(MaskOf(Access)) || !b.Satisfies(MaskOf(Access, Time)) {
		t.Fatal("Satisfies false negative")
	}
	if b.Satisfies(MaskOf(Access, View)) {
		t.Fatal("Satisfies false positive")
	}
	missing := b.Missing(MaskOf(Access, View, Activity))
	if len(missing) != 2 || missing[0] != View || missing[1] != Activity {
		t.Fatalf("Missing = %v", missing)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	reqs := []Requirement{
		{Name: "information-sharing", Viewpoint: Information, Function: "information.Space"},
		{Name: "activity-support", Viewpoint: Enterprise, Function: "activity.Coordinator"},
		{Name: "org-modelling", Viewpoint: Enterprise, Function: "org.KnowledgeBase"},
		{Name: "selective-transparency", Viewpoint: Computation, Function: "transparency.Selector"},
	}
	for _, req := range reqs {
		if err := r.Add(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Add(reqs[0]); err == nil {
		t.Fatal("duplicate requirement accepted")
	}
	ent := r.ByViewpoint(Enterprise)
	if len(ent) != 2 || ent[0].Name != "activity-support" {
		t.Fatalf("ByViewpoint(Enterprise) = %v", ent)
	}
	all := r.All()
	if len(all) != 4 || all[0].Viewpoint != Enterprise || all[3].Viewpoint != Computation {
		t.Fatalf("All() ordering wrong: %v", all)
	}
}

func TestInteractionKindString(t *testing.T) {
	if Interrogation.String() != "interrogation" || Announcement.String() != "announcement" {
		t.Fatal("interaction kind names wrong")
	}
}
