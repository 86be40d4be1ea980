package odp

import (
	"testing"
	"testing/quick"
)

func TestMaskOperations(t *testing.T) {
	m := MaskOf(Time, View)
	if !m.Has(Time) || !m.Has(View) || m.Has(Access) {
		t.Fatalf("mask membership wrong: %v", m)
	}
	m = m.Without(View)
	if !m.Has(Time) || m.Has(View) {
		t.Fatalf("Without wrong: %v", m)
	}
	if got := MaskOf(Activity, Access, Time).List(); len(got) != 3 || got[0] != Access || got[2] != Activity {
		t.Fatalf("List = %v, want declaration order", got)
	}
}

func TestQuickMaskWithHas(t *testing.T) {
	f := func(raw uint8) bool {
		t1 := Transparency(raw%10) + 1
		m := MaskOf(t1)
		return m.Has(t1) && !Mask(0).Has(t1) && m.Without(t1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBindingSatisfies(t *testing.T) {
	b := Binding{
		Client:   "editor",
		Server:   "store",
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
	all := r.All()
	if len(all) != 4 || all[0].Viewpoint != Enterprise || all[3].Viewpoint != Computation {
		t.Fatalf("All() ordering wrong: %v", all)
	}
}
