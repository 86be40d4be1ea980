package information

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mocca/internal/access"
	"mocca/internal/netsim"
	"mocca/internal/vclock"
)

// newDocRegistry registers three application schemas plus the shared
// interchange schema, each app converting only to/from the interchange —
// the figure-3 pattern.
func newDocRegistry(t *testing.T) *SchemaRegistry {
	t.Helper()
	r := NewSchemaRegistry()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.Register(Schema{Name: "interchange", Fields: []Field{
		{Name: "title", Type: FieldText, Required: true},
		{Name: "body", Type: FieldText},
		{Name: "author", Type: FieldText},
	}}))
	must(r.Register(Schema{Name: "editor-doc", Fields: []Field{
		{Name: "heading", Type: FieldText, Required: true},
		{Name: "text", Type: FieldText},
		{Name: "writer", Type: FieldText},
	}}))
	must(r.Register(Schema{Name: "mail-memo", Fields: []Field{
		{Name: "subject", Type: FieldText, Required: true},
		{Name: "content", Type: FieldText},
		{Name: "from", Type: FieldText},
	}}))
	must(r.Register(Schema{Name: "minutes", Fields: []Field{
		{Name: "title", Type: FieldText, Required: true},
		{Name: "body", Type: FieldText},
		{Name: "author", Type: FieldText},
		{Name: "meeting", Type: FieldText},
	}}))

	rename := func(mapping map[string]string) func(map[string]string) (map[string]string, error) {
		return func(in map[string]string) (map[string]string, error) {
			out := make(map[string]string, len(in))
			for k, v := range in {
				if nk, ok := mapping[k]; ok {
					out[nk] = v
				}
			}
			return out, nil
		}
	}
	must(r.AddConverter(Converter{From: "editor-doc", To: "interchange",
		Fn: rename(map[string]string{"heading": "title", "text": "body", "writer": "author"})}))
	must(r.AddConverter(Converter{From: "interchange", To: "editor-doc",
		Fn: rename(map[string]string{"title": "heading", "body": "text", "author": "writer"})}))
	must(r.AddConverter(Converter{From: "mail-memo", To: "interchange",
		Fn: rename(map[string]string{"subject": "title", "content": "body", "from": "author"})}))
	must(r.AddConverter(Converter{From: "interchange", To: "mail-memo",
		Fn: rename(map[string]string{"title": "subject", "body": "content", "author": "from"})}))
	must(r.AddConverter(Converter{From: "minutes", To: "interchange",
		Fn: rename(map[string]string{"title": "title", "body": "body", "author": "author"})}))
	must(r.AddConverter(Converter{From: "interchange", To: "minutes",
		Fn: func(in map[string]string) (map[string]string, error) {
			out := map[string]string{"title": in["title"], "body": in["body"], "author": in["author"], "meeting": "unknown"}
			return out, nil
		}}))
	return r
}

func newTestSpace(t *testing.T) (*Space, *access.System) {
	t.Helper()
	acl := access.NewSystem()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	return NewSpace(newDocRegistry(t), acl, clk), acl
}

func TestSchemaValidate(t *testing.T) {
	s := Schema{Name: "x", Fields: []Field{
		{Name: "title", Type: FieldText, Required: true},
		{Name: "count", Type: FieldInt},
	}}
	tests := []struct {
		name    string
		fields  map[string]string
		wantErr bool
	}{
		{"ok", map[string]string{"title": "t", "count": "42"}, false},
		{"ok negative int", map[string]string{"title": "t", "count": "-3"}, false},
		{"missing required", map[string]string{"count": "1"}, true},
		{"bad int", map[string]string{"title": "t", "count": "4x"}, true},
		{"unknown field", map[string]string{"title": "t", "bogus": "y"}, true},
		{"optional absent", map[string]string{"title": "t"}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := s.Validate(tt.fields)
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate(%v) err = %v, wantErr %v", tt.fields, err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrSchemaViolation) {
				t.Fatalf("error does not wrap ErrSchemaViolation: %v", err)
			}
		})
	}
}

func TestConversionDirect(t *testing.T) {
	r := newDocRegistry(t)
	out, err := r.Convert(map[string]string{"heading": "Plan", "text": "dig", "writer": "ada"},
		"editor-doc", "interchange")
	if err != nil {
		t.Fatal(err)
	}
	if out["title"] != "Plan" || out["body"] != "dig" || out["author"] != "ada" {
		t.Fatalf("converted = %v", out)
	}
}

func TestConversionMultiHop(t *testing.T) {
	r := newDocRegistry(t)
	// editor-doc -> interchange -> mail-memo: two hops found automatically.
	out, err := r.Convert(map[string]string{"heading": "Plan", "text": "dig", "writer": "ada"},
		"editor-doc", "mail-memo")
	if err != nil {
		t.Fatal(err)
	}
	if out["subject"] != "Plan" || out["content"] != "dig" || out["from"] != "ada" {
		t.Fatalf("converted = %v", out)
	}
	path, err := r.FindPath("editor-doc", "mail-memo")
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Fatalf("path length = %d, want 2", len(path))
	}
}

func TestConversionIdentity(t *testing.T) {
	r := newDocRegistry(t)
	in := map[string]string{"title": "x"}
	out, err := r.Convert(in, "interchange", "interchange")
	if err != nil {
		t.Fatal(err)
	}
	if out["title"] != "x" {
		t.Fatalf("identity conversion = %v", out)
	}
}

func TestNoConversionPath(t *testing.T) {
	r := NewSchemaRegistry()
	if err := r.Register(Schema{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(Schema{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FindPath("a", "b"); !errors.Is(err, ErrNoConversion) {
		t.Fatalf("err = %v", err)
	}
	if _, err := r.FindPath("a", "ghost"); !errors.Is(err, ErrUnknownSchema) {
		t.Fatalf("err = %v", err)
	}
}

func TestPutGetUpdate(t *testing.T) {
	space, _ := newTestSpace(t)
	obj, err := space.Put("ada", "editor-doc", map[string]string{"heading": "Draft", "text": "v1"})
	if err != nil {
		t.Fatal(err)
	}
	if obj.Version != 1 || obj.Owner != "ada" {
		t.Fatalf("obj = %+v", obj)
	}
	got, err := space.Get("ada", obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fields["heading"] != "Draft" {
		t.Fatalf("got = %+v", got)
	}
	updated, err := space.Update("ada", obj.ID, 1, map[string]string{"text": "v2"})
	if err != nil {
		t.Fatal(err)
	}
	if updated.Version != 2 || updated.Fields["text"] != "v2" || updated.Fields["heading"] != "Draft" {
		t.Fatalf("updated = %+v", updated)
	}
}

func TestOptimisticConcurrency(t *testing.T) {
	space, _ := newTestSpace(t)
	obj, err := space.Put("ada", "editor-doc", map[string]string{"heading": "Draft"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := space.Update("ada", obj.ID, 1, map[string]string{"text": "a"}); err != nil {
		t.Fatal(err)
	}
	// Stale writer loses.
	if _, err := space.Update("ada", obj.ID, 1, map[string]string{"text": "b"}); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale update err = %v", err)
	}
}

func TestAccessControlEnforced(t *testing.T) {
	space, _ := newTestSpace(t)
	obj, err := space.Put("ada", "editor-doc", map[string]string{"heading": "Secret"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := space.Get("mallory", obj.ID); !errors.Is(err, ErrDenied) {
		t.Fatalf("unauthorised read err = %v", err)
	}
	if _, err := space.Update("mallory", obj.ID, 1, nil); !errors.Is(err, ErrDenied) {
		t.Fatalf("unauthorised write err = %v", err)
	}
	if err := space.Share("mallory", obj.ID, "mallory", false); !errors.Is(err, ErrDenied) {
		t.Fatalf("unauthorised share err = %v", err)
	}
	if st := space.Stats(); st.Denials != 3 {
		t.Fatalf("Denials = %d", st.Denials)
	}
}

func TestShareGrantsAccess(t *testing.T) {
	space, _ := newTestSpace(t)
	obj, err := space.Put("ada", "editor-doc", map[string]string{"heading": "Shared"})
	if err != nil {
		t.Fatal(err)
	}
	if err := space.Share("ada", obj.ID, "ben", false); err != nil {
		t.Fatal(err)
	}
	if _, err := space.Get("ben", obj.ID); err != nil {
		t.Fatalf("ben read after share: %v", err)
	}
	// Read-only share: write still denied.
	if _, err := space.Update("ben", obj.ID, 1, map[string]string{"text": "x"}); !errors.Is(err, ErrDenied) {
		t.Fatalf("ben write err = %v", err)
	}
	if err := space.Share("ada", obj.ID, "carol", true); err != nil {
		t.Fatal(err)
	}
	if _, err := space.Update("carol", obj.ID, 1, map[string]string{"text": "by carol"}); err != nil {
		t.Fatalf("carol write after writable share: %v", err)
	}
}

func TestGetAsCrossSchema(t *testing.T) {
	space, _ := newTestSpace(t)
	obj, err := space.Put("ada", "editor-doc", map[string]string{"heading": "Plan", "text": "dig", "writer": "ada"})
	if err != nil {
		t.Fatal(err)
	}
	if err := space.Share("ada", obj.ID, "mailapp", false); err != nil {
		t.Fatal(err)
	}
	memo, err := space.GetAs("mailapp", obj.ID, "mail-memo")
	if err != nil {
		t.Fatal(err)
	}
	if memo.Fields["subject"] != "Plan" || memo.Schema != "mail-memo" {
		t.Fatalf("memo = %+v", memo)
	}
	// Original object untouched.
	orig, _ := space.Get("ada", obj.ID)
	if orig.Schema != "editor-doc" {
		t.Fatal("GetAs mutated the stored object")
	}
}

func TestRelationshipsAndCycles(t *testing.T) {
	space, _ := newTestSpace(t)
	mk := func(h string) string {
		t.Helper()
		obj, err := space.Put("ada", "editor-doc", map[string]string{"heading": h})
		if err != nil {
			t.Fatal(err)
		}
		return obj.ID
	}
	report, chapter, figure := mk("report"), mk("chapter"), mk("figure")
	if err := space.Relate(report, RelComposedOf, chapter); err != nil {
		t.Fatal(err)
	}
	if err := space.Relate(chapter, RelComposedOf, figure); err != nil {
		t.Fatal(err)
	}
	if err := space.Relate(figure, RelComposedOf, report); !errors.Is(err, ErrCycle) {
		t.Fatalf("cycle err = %v", err)
	}
	if err := space.Relate(report, RelComposedOf, report); !errors.Is(err, ErrCycle) {
		t.Fatalf("self-cycle err = %v", err)
	}
	closure := space.Closure(report, RelComposedOf)
	if len(closure) != 2 {
		t.Fatalf("closure = %v", closure)
	}
	deps := space.Dependents(figure, RelComposedOf)
	if len(deps) != 1 || deps[0] != chapter {
		t.Fatalf("dependents = %v", deps)
	}

	// The graph itself, as both backends hold it: what it refuses, what it
	// ignores, what a strip leaves behind and how it dumps.
	var g RelationGraph
	edge := func(from string, kind RelKind, to string) Relation {
		return Relation{From: from, Kind: kind, To: to}
	}
	for _, rel := range []Relation{
		edge("b", RelDependsOn, "c"), edge("a", RelDependsOn, "c"), edge("a", RelDependsOn, "b"),
		edge("a", RelComposedOf, "b"), edge("a", RelDependsOn, "b"), // the last one twice
	} {
		if err := g.Check(rel); err != nil {
			t.Fatalf("check %v: %v", rel, err)
		}
		g.Add(rel)
	}
	if got := g.Related("a", RelDependsOn); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("re-added edge is not a no-op: %v", got)
	}
	if err := g.Check(edge("a", RelDependsOn, "a")); !errors.Is(err, ErrCycle) {
		t.Fatalf("self edge: %v", err)
	}
	if err := g.Check(edge("c", RelDependsOn, "a")); !errors.Is(err, ErrCycle) {
		t.Fatalf("cycle over depends-on: %v", err)
	}
	if err := g.Check(edge("c", RelComposedOf, "a")); err != nil {
		t.Fatalf("the same pair under a kind with no path back: %v", err)
	}
	want := []Relation{
		edge("a", RelComposedOf, "b"), edge("a", RelDependsOn, "b"),
		edge("a", RelDependsOn, "c"), edge("b", RelDependsOn, "c"),
	}
	if got := g.Relations(); !reflect.DeepEqual(got, want) {
		t.Fatalf("relations = %v, want %v sorted by (from, kind, to)", got, want)
	}
	g.Strip("b") // a source and a target
	if got := g.Relations(); !reflect.DeepEqual(got, []Relation{edge("a", RelDependsOn, "c")}) {
		t.Fatalf("after strip: %v", got)
	}
	if len(g.edges) != 1 || len(g.edges["a"]) != 1 {
		t.Fatalf("strip left empty inner maps: %v", g.edges)
	}
}

func TestQuery(t *testing.T) {
	space, _ := newTestSpace(t)
	for i := 0; i < 5; i++ {
		status := "draft"
		if i%2 == 0 {
			status = "final"
		}
		_, err := space.Put("ada", "minutes", map[string]string{
			"title": fmt.Sprintf("meeting-%d", i), "meeting": status,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := space.Query("ada", "minutes", map[string]string{"meeting": "final"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("query found %d, want 3", len(got))
	}
	// Other principals see nothing (no read grants).
	got, err = space.Query("mallory", "minutes", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("mallory sees %d objects", len(got))
	}
}

func TestSubscriptions(t *testing.T) {
	space, _ := newTestSpace(t)
	var events []string
	space.Subscribe("editor-doc", func(ev Event) {
		events = append(events, ev.Kind)
	})
	var all []string
	space.Subscribe("", func(ev Event) { all = append(all, ev.Kind) })

	obj, err := space.Put("ada", "editor-doc", map[string]string{"heading": "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := space.Update("ada", obj.ID, 1, map[string]string{"text": "y"}); err != nil {
		t.Fatal(err)
	}
	if _, err := space.Put("ada", "minutes", map[string]string{"title": "m"}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(events) != "[put update]" {
		t.Fatalf("schema-filtered events = %v", events)
	}
	if fmt.Sprint(all) != "[put update put]" {
		t.Fatalf("all events = %v", all)
	}
}

func TestNilACLAllowsAll(t *testing.T) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	space := NewSpace(newDocRegistry(t), nil, clk)
	obj, err := space.Put("a", "editor-doc", map[string]string{"heading": "open"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := space.Get("anyone", obj.ID); err != nil {
		t.Fatalf("nil-ACL read: %v", err)
	}
}
