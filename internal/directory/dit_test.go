package directory

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// seedDIT builds the small organisation tree used across tests:
//
//	o=GMD
//	  ou=CSCW
//	    cn=Prinz (person)
//	    cn=Klaus (person)
//	  ou=ODP
//	    cn=Meer (person)
//	o=UPC
//	  cn=Navarro (person)
//	cn=PrinzAlias -> cn=Prinz,ou=CSCW,o=GMD
func seedDIT(t *testing.T) *DIT {
	t.Helper()
	d := NewDIT()
	add := func(dn string, attrs Attributes) {
		t.Helper()
		if err := d.Add(MustParseDN(dn), attrs); err != nil {
			t.Fatalf("Add(%s): %v", dn, err)
		}
	}
	add("o=GMD", NewAttributes("objectclass", ClassOrganization, "o", "GMD"))
	add("ou=CSCW,o=GMD", NewAttributes("objectclass", ClassOrgUnit, "ou", "CSCW"))
	add("ou=ODP,o=GMD", NewAttributes("objectclass", ClassOrgUnit, "ou", "ODP"))
	add("cn=Prinz,ou=CSCW,o=GMD", PersonEntry("Prinz", "Prinz", "prinz@gmd.de"))
	add("cn=Klaus,ou=CSCW,o=GMD", PersonEntry("Klaus", "Klaus", ""))
	add("cn=Meer,ou=ODP,o=GMD", PersonEntry("Meer", "de Meer", "meer@gmd.de"))
	add("o=UPC", NewAttributes("objectclass", ClassOrganization, "o", "UPC"))
	add("cn=Navarro,o=UPC", PersonEntry("Navarro", "Navarro Moldes", "leandro@upc.es"))
	add("cn=PrinzAlias", NewAttributes(AliasAttr, "cn=Prinz,ou=CSCW,o=GMD"))
	return d
}

func TestAddRequiresParent(t *testing.T) {
	d := NewDIT()
	err := d.Add(MustParseDN("cn=X,ou=Nowhere,o=Gone"), nil)
	if !errors.Is(err, ErrNoParent) {
		t.Fatalf("err = %v, want ErrNoParent", err)
	}
}

func TestAddDuplicate(t *testing.T) {
	d := seedDIT(t)
	err := d.Add(MustParseDN("o=GMD"), nil)
	if !errors.Is(err, ErrEntryExists) {
		t.Fatalf("err = %v, want ErrEntryExists", err)
	}
}

func TestReadAndCopySemantics(t *testing.T) {
	d := seedDIT(t)
	e, err := d.Read(MustParseDN("cn=Prinz,ou=CSCW,o=GMD"))
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the returned entry must not affect the store.
	e.Attrs.Add("mail", "hacked@evil")
	again, err := d.Read(MustParseDN("cn=Prinz,ou=CSCW,o=GMD"))
	if err != nil {
		t.Fatal(err)
	}
	if again.Attrs.Has("mail", "hacked@evil") {
		t.Fatal("Read returned aliased storage")
	}
}

func TestDeleteLeafOnly(t *testing.T) {
	d := seedDIT(t)
	if err := d.Delete(MustParseDN("o=GMD")); !errors.Is(err, ErrHasChildren) {
		t.Fatalf("delete non-leaf: %v, want ErrHasChildren", err)
	}
	if err := d.Delete(MustParseDN("cn=Klaus,ou=CSCW,o=GMD")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(MustParseDN("cn=Klaus,ou=CSCW,o=GMD")); !errors.Is(err, ErrNoSuchEntry) {
		t.Fatalf("read after delete: %v", err)
	}
}

func TestModifyAtomic(t *testing.T) {
	d := seedDIT(t)
	dn := MustParseDN("cn=Prinz,ou=CSCW,o=GMD")
	err := d.Modify(dn,
		Modification{Op: "add", Attr: "title", Value: "researcher"},
		Modification{Op: "bogus"},
	)
	if err == nil {
		t.Fatal("modify with bad op succeeded")
	}
	e, _ := d.Read(dn)
	if e.Attrs.Has("title", "") {
		t.Fatal("partial modify applied; not atomic")
	}

	if err := d.Modify(dn,
		Modification{Op: "add", Attr: "title", Value: "researcher"},
		Modification{Op: "replace", Attr: "mail", Values: []string{"wp@gmd.de"}},
		Modification{Op: "remove", Attr: "sn", Value: ""},
	); err != nil {
		t.Fatal(err)
	}
	e, _ = d.Read(dn)
	if !e.Attrs.Has("title", "researcher") || e.Attrs.First("mail") != "wp@gmd.de" || e.Attrs.Has("sn", "") {
		t.Fatalf("modify result: %v", e.Attrs)
	}
}

func TestSearchScopes(t *testing.T) {
	d := seedDIT(t)
	tests := []struct {
		name  string
		base  string
		scope Scope
		want  int
	}{
		{"base", "o=GMD", ScopeBase, 1},
		{"one-level", "o=GMD", ScopeOneLevel, 2},
		{"subtree", "o=GMD", ScopeSubtree, 6},
		{"subtree root", "", ScopeSubtree, 9},
		{"one-level root", "", ScopeOneLevel, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := d.Search(SearchRequest{Base: MustParseDN(tt.base), Scope: tt.scope})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tt.want {
				var dns []string
				for _, e := range got {
					dns = append(dns, e.DN.String())
				}
				t.Fatalf("got %d entries %v, want %d", len(got), dns, tt.want)
			}
		})
	}
}

func TestSearchFilter(t *testing.T) {
	d := seedDIT(t)
	got, err := d.Search(SearchRequest{
		Base:   DN{},
		Scope:  ScopeSubtree,
		Filter: MustParseFilter("(&(objectclass=person)(mail=*))"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d persons with mail, want 3", len(got))
	}
}

func TestSearchSizeLimit(t *testing.T) {
	d := seedDIT(t)
	got, err := d.Search(SearchRequest{Base: DN{}, Scope: ScopeSubtree, SizeLimit: 2})
	if !errors.Is(err, ErrSizeLimit) {
		t.Fatalf("err = %v, want ErrSizeLimit", err)
	}
	if len(got) != 2 {
		t.Fatalf("partial result = %d entries, want 2", len(got))
	}
}

func TestSearchBadBase(t *testing.T) {
	d := seedDIT(t)
	_, err := d.Search(SearchRequest{Base: MustParseDN("o=Nowhere")})
	if !errors.Is(err, ErrNoSuchEntry) {
		t.Fatalf("err = %v, want ErrNoSuchEntry", err)
	}
}

func TestAliasDeref(t *testing.T) {
	d := seedDIT(t)
	got, err := d.Search(SearchRequest{
		Base:         MustParseDN("cn=PrinzAlias"),
		Scope:        ScopeBase,
		Filter:       MustParseFilter("(cn=Prinz)"),
		DerefAliases: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Attrs.First("mail") != "prinz@gmd.de" {
		t.Fatalf("alias deref returned %v", got)
	}
	// Without deref the alias entry itself has no cn.
	got, err = d.Search(SearchRequest{
		Base:   MustParseDN("cn=PrinzAlias"),
		Scope:  ScopeBase,
		Filter: MustParseFilter("(cn=Prinz)"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("filter matched alias without deref")
	}
}

func TestAliasLoopDetected(t *testing.T) {
	d := NewDIT()
	if err := d.Add(MustParseDN("cn=A"), NewAttributes(AliasAttr, "cn=B")); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(MustParseDN("cn=B"), NewAttributes(AliasAttr, "cn=A")); err != nil {
		t.Fatal(err)
	}
	_, err := d.Search(SearchRequest{Base: MustParseDN("cn=A"), Scope: ScopeBase, DerefAliases: true})
	if !errors.Is(err, ErrAliasLoop) {
		t.Fatalf("err = %v, want ErrAliasLoop", err)
	}
}

func TestList(t *testing.T) {
	d := seedDIT(t)
	kids, err := d.List(MustParseDN("o=GMD"))
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 {
		t.Fatalf("List(o=GMD) = %d entries", len(kids))
	}
	if _, err := d.List(MustParseDN("o=Nope")); !errors.Is(err, ErrNoSuchEntry) {
		t.Fatalf("List missing: %v", err)
	}
}

func TestLargeTreeSearch(t *testing.T) {
	d := NewDIT()
	if err := d.Add(MustParseDN("o=Big"), nil); err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		dn := MustParseDN(fmt.Sprintf("cn=user%03d,o=Big", i))
		attrs := PersonEntry(fmt.Sprintf("user%03d", i), "U", "")
		attrs.Add("dept", []string{"eng", "sales", "hr"}[i%3])
		if err := d.Add(dn, attrs); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.Search(SearchRequest{
		Base:   MustParseDN("o=Big"),
		Scope:  ScopeSubtree,
		Filter: MustParseFilter("(dept=eng)"),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := (n + 2) / 3
	if len(got) != want {
		t.Fatalf("got %d eng entries, want %d", len(got), want)
	}
}

// scanSearch is Search as it was before the equality index: one pre-order
// walk of the subtree for every request. It is the reference the indexed
// Search is compared against, kept word for word.
func scanSearch(d *DIT, req SearchRequest) ([]*Entry, error) {
	if req.Filter == nil {
		req.Filter = All()
	}
	if req.Scope == 0 {
		req.Scope = ScopeSubtree
	}
	d.mu.RLock()
	defer d.mu.RUnlock()

	baseKey := req.Base.Normalized()
	if !req.Base.IsRoot() {
		if _, ok := d.entries[baseKey]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchEntry, req.Base)
		}
	}

	var out []*Entry
	var walk func(key string, depth int) error
	visit := func(e *Entry) error {
		target := e
		if req.DerefAliases && e.Attrs.Has(AliasAttr, "") {
			deref, err := d.derefLocked(e, 0)
			if err != nil {
				return err
			}
			target = deref
		}
		if req.Filter.Matches(target.Attrs) {
			if req.SizeLimit > 0 && len(out) >= req.SizeLimit {
				return ErrSizeLimit
			}
			out = append(out, target.Clone())
		}
		return nil
	}
	walk = func(key string, depth int) error {
		if entry, ok := d.entries[key]; ok {
			include := false
			switch req.Scope {
			case ScopeBase:
				include = depth == 0
			case ScopeOneLevel:
				include = depth == 1
			case ScopeSubtree:
				include = true
			}
			if include {
				if err := visit(entry); err != nil {
					return err
				}
			}
		}
		if req.Scope == ScopeOneLevel && depth >= 1 {
			return nil
		}
		if req.Scope == ScopeBase {
			return nil
		}
		children := make([]string, 0, len(d.childix[key]))
		for ck := range d.childix[key] {
			children = append(children, ck)
		}
		sort.Strings(children)
		for _, ck := range children {
			if err := walk(ck, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	err := walk(baseKey, 0)
	if errors.Is(err, ErrSizeLimit) {
		sortEntries(out)
		return out, err
	}
	if err != nil {
		return nil, err
	}
	sortEntries(out)
	return out, nil
}

// The pools a search script draws from. RDN values are chosen so sibling keys
// differ around ',' (the walk orders siblings by whole normalized key, not by
// RDN), attribute values so every folding case meets its partners: "ſ" and the
// Kelvin sign fold to ASCII letters, "İ" folds to nothing else although
// ToLower maps it to "i", and two different invalid bytes are EqualFold.
var (
	scriptRDNs = [][]string{
		{"o=A", "o=a!", "o=b"},
		{"ou=X", "ou=x!", "ou=ſ"},
		{"cn=Prinz", "cn=prinz", "cn=K", "cn=s", "cn=İ"},
		{"cn=deep"},
	}
	scriptAttrs  = []string{"cn", "sn", "role"}
	scriptValues = []string{"Prinz", "PRINZ", "s", "S", "ſ", "k", "K", "i", "İ", "\xff", "\xfe", "w"}
)

// script feeds bytes to the interpreter; an exhausted script reads zeros, so
// every prefix of a script is a script.
type script struct {
	b []byte
	i int
}

func (s *script) next(n int) int {
	v := 0
	if s.i < len(s.b) {
		v = int(s.b[s.i])
		s.i++
	}
	return v % n
}

func (s *script) done() bool { return s.i >= len(s.b) }

// dn draws a DN from the pools, present in the tree or not.
func (s *script) dn() DN {
	depth := 1 + s.next(len(scriptRDNs))
	parts := make([]string, depth)
	for level := 0; level < depth; level++ {
		pool := scriptRDNs[level]
		parts[depth-1-level] = pool[s.next(len(pool))]
	}
	return MustParseDN(strings.Join(parts, ","))
}

// held draws the DN of an entry d holds, the root, or — one time in eight —
// any DN from the pools.
func (s *script) held(d *DIT) DN {
	if s.next(8) == 0 {
		return s.dn()
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	keys := make([]string, 0, len(d.entries))
	for k := range d.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if i := s.next(len(keys) + 1); i < len(keys) {
		return d.entries[keys[i]].DN
	}
	return DN{}
}

// child draws a DN one level below an entry d holds.
func (s *script) child(d *DIT) DN {
	parent := s.held(d)
	pool := scriptRDNs[min(parent.Depth(), len(scriptRDNs)-1)]
	rdn := MustParseDN(pool[s.next(len(pool))])
	return append(rdn, parent...)
}

func (s *script) value() string { return scriptValues[s.next(len(scriptValues))] }
func (s *script) attr() string  { return scriptAttrs[s.next(len(scriptAttrs))] }

func (s *script) filter(depth int) Filter {
	kind := s.next(12)
	if depth >= 2 {
		kind %= 6
	}
	switch kind {
	case 0, 1, 2:
		return Eq(s.attr(), s.value())
	case 3:
		return Present(s.attr())
	case 4:
		return Substr(s.attr(), "*"+strings.ToLower(s.value())+"*")
	case 5:
		return Eq(s.attr(), "")
	case 6, 7:
		return And(Eq(s.attr(), s.value()), s.filter(depth+1))
	case 8:
		return And(s.filter(depth+1), s.filter(depth+1), Eq(s.attr(), s.value()))
	case 9:
		return Or(s.filter(depth+1), s.filter(depth+1))
	case 10:
		return Not(s.filter(depth + 1))
	default:
		return Ge(s.attr(), s.value())
	}
}

func (s *script) request(d *DIT) SearchRequest {
	req := SearchRequest{
		Scope:        Scope(s.next(4)),
		SizeLimit:    []int{0, 1, 2, 5}[s.next(4)],
		DerefAliases: s.next(4) == 0,
		Filter:       s.filter(0),
	}
	req.Base = s.held(d)
	return req
}

// mutate applies one scripted operation to the master tree. Errors are the
// point as much as successes: a refused Add or Delete must leave the index
// as it was.
func (s *script) mutate(d *DIT) {
	switch s.next(10) {
	case 0, 1, 2, 3, 4:
		attrs := Attributes{}
		for n := 1 + s.next(3); n > 0; n-- {
			attrs.Add(s.attr(), s.value())
		}
		if s.next(6) == 0 {
			attrs.Add(AliasAttr, s.held(d).String())
		}
		_ = d.Add(s.child(d), attrs)
	case 5:
		_ = d.Modify(s.held(d), Modification{Op: "add", Attr: s.attr(), Value: s.value()})
	case 6:
		_ = d.Modify(s.held(d), Modification{Op: "replace", Attr: s.attr(), Values: []string{s.value(), s.value()}})
	case 7:
		_ = d.Modify(s.held(d), Modification{Op: "remove", Attr: s.attr(), Value: []string{"", s.value()}[s.next(2)]})
	case 8:
		// A value moves from one entry to another.
		attr, v := s.attr(), s.value()
		_ = d.Modify(s.held(d), Modification{Op: "remove", Attr: attr, Value: v})
		_ = d.Modify(s.held(d), Modification{Op: "add", Attr: attr, Value: v})
	default:
		_ = d.Delete(s.held(d))
	}
}

// runSearchScript interprets a script: bursts of mutations on a tree, each
// followed by a burst of searches on it. Each Search must return what
// scanSearch returns.
func runSearchScript(t *testing.T, data []byte) {
	t.Helper()
	s := &script{b: data}
	d := NewDIT()
	for round := 0; round == 0 || !s.done(); round++ {
		for n := 4 + s.next(12); n > 0; n-- {
			s.mutate(d)
		}
		for n := 6 + s.next(10); n > 0; n-- {
			req := s.request(d)
			got, gotErr := d.Search(req)
			want, wantErr := scanSearch(d, req)
			if diff := diffResults(got, gotErr, want, wantErr); diff != "" {
				t.Fatalf("round %d: Search(base %q scope %v filter %s limit %d deref %v): %s",
					round, req.Base, req.Scope, req.Filter, req.SizeLimit, req.DerefAliases, diff)
			}
		}
	}
}

// diffResults describes the first difference between two search outcomes:
// error, number of entries, then each entry's DN and attributes in order.
func diffResults(got []*Entry, gotErr error, want []*Entry, wantErr error) string {
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || errors.Is(gotErr, ErrSizeLimit) != errors.Is(wantErr, ErrSizeLimit) {
		return fmt.Sprintf("err = %v, scan says %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, scan says %d", len(got), len(want))
	}
	for i := range got {
		if got[i].DN.String() != want[i].DN.String() || !reflect.DeepEqual(got[i].Attrs, want[i].Attrs) {
			return fmt.Sprintf("entry %d = %s %v, scan says %s %v", i, got[i].DN, got[i].Attrs, want[i].DN, want[i].Attrs)
		}
	}
	return ""
}

func TestSearchIndexMatchesScan(t *testing.T) {
	// Hand-written scripts would have to be re-derived whenever the
	// interpreter changes; the cases that matter are pinned as direct tests
	// below, and the seeds here cover the space between them.
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			data := make([]byte, 2500)
			rand.New(rand.NewSource(seed)).Read(data)
			runSearchScript(t, data)
		})
	}
}

func FuzzSearchIndexMatchesScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("script longer than any the seeds need")
		}
		runSearchScript(t, data)
	})
}

// TestSearchIndexCases pins the requests the index could plausibly get wrong,
// each against the scan and against the answer written out.
func TestSearchIndexCases(t *testing.T) {
	d := NewDIT()
	add := func(dn string, kv ...string) {
		t.Helper()
		if err := d.Add(MustParseDN(dn), NewAttributes(kv...)); err != nil {
			t.Fatalf("Add(%s): %v", dn, err)
		}
	}
	add("o=b", "role", "w")
	add("o=a!", "role", "w")
	add("o=a", "role", "w")
	add("ou=z,o=a", "role", "W")
	add("ou=y,o=a", "role", "w", "role", "W", "cn", "ſ")
	add("ou=y!,o=a", "role", "w")
	add("cn=k,ou=y,o=a", "role", "w", "cn", "K")
	add("cn=i,o=b", "cn", "İ")
	add("cn=ref,o=b", AliasAttr, "cn=k,ou=y,o=a", "role", "alias")

	cases := []struct {
		name string
		req  SearchRequest
		want []string
		err  error
	}{
		{"fold s", SearchRequest{Filter: Eq("cn", "S")}, []string{"ou=y,o=a"}, nil},
		{"fold kelvin", SearchRequest{Filter: Eq("cn", "k")}, []string{"cn=k,ou=y,o=a"}, nil},
		{"dotted I is not i", SearchRequest{Filter: Eq("cn", "i")}, nil, nil},
		{"a value held twice is one result", SearchRequest{Filter: Eq("role", "w"), Base: MustParseDN("ou=y,o=a"), Scope: ScopeBase}, []string{"ou=y,o=a"}, nil},
		// The walk reaches o=a, ou=y! (siblings go by whole key, and '!' sorts
		// before the ',' that follows "ou=y"), ou=y, cn=k, ou=z, o=a!, o=b.
		{"limit keeps the walk's first", SearchRequest{Filter: Eq("role", "w"), SizeLimit: 4}, []string{"cn=k,ou=y,o=a", "o=a", "ou=y!,o=a", "ou=y,o=a"}, ErrSizeLimit},
		{"limit among siblings", SearchRequest{Filter: Eq("role", "w"), Base: MustParseDN("o=a"), Scope: ScopeOneLevel, SizeLimit: 1}, []string{"ou=y!,o=a"}, ErrSizeLimit},
		{"limit one level", SearchRequest{Filter: Eq("role", "w"), Scope: ScopeOneLevel, SizeLimit: 2}, []string{"o=a", "o=a!"}, ErrSizeLimit},
		{"limit met exactly", SearchRequest{Filter: Eq("role", "w"), Base: MustParseDN("o=a"), SizeLimit: 5}, []string{"cn=k,ou=y,o=a", "o=a", "ou=y!,o=a", "ou=y,o=a", "ou=z,o=a"}, nil},
		{"and picks the rarer term", SearchRequest{Filter: And(Eq("role", "w"), Eq("cn", "s"))}, []string{"ou=y,o=a"}, nil},
		{"deref walks", SearchRequest{Filter: Eq("cn", "k"), Base: MustParseDN("o=b"), DerefAliases: true}, []string{"cn=k,ou=y,o=a"}, nil},
		{"no deref, no alias target", SearchRequest{Filter: Eq("cn", "k"), Base: MustParseDN("o=b")}, nil, nil},
		{"missing base", SearchRequest{Filter: Eq("cn", "k"), Base: MustParseDN("o=nowhere")}, nil, ErrNoSuchEntry},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := d.Search(tc.req)
			want, wantErr := scanSearch(d, tc.req)
			if diff := diffResults(got, err, want, wantErr); diff != "" {
				t.Fatal(diff)
			}
			if !errors.Is(err, tc.err) {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			var dns []string
			for _, e := range got {
				dns = append(dns, e.DN.String())
			}
			if !reflect.DeepEqual(dns, tc.want) {
				t.Fatalf("got %q, want %q", dns, tc.want)
			}
		})
	}
}

func TestFoldValueIsEqualFold(t *testing.T) {
	pool := append([]string{"", "a,b", "Straße", "ǅ", "ǆ", "Ǆ", "σ", "ς", "Σ"}, scriptValues...)
	for r := rune(0); r < 0x3000; r++ {
		pool = append(pool, string(r))
	}
	byKey := make(map[string]string)
	for _, a := range pool {
		key := foldValue(a)
		if rep, ok := byKey[key]; ok && !strings.EqualFold(a, rep) {
			t.Fatalf("foldValue(%q) == foldValue(%q) but they are not EqualFold", a, rep)
		}
		byKey[key] = a
		for f := []rune(a); len(f) == 1 && unicode.SimpleFold(f[0]) != f[0]; {
			if b := string(unicode.SimpleFold(f[0])); foldValue(b) != key {
				t.Fatalf("%q and %q are EqualFold but fold to %q and %q", a, b, key, foldValue(b))
			}
			break
		}
	}
	for _, pair := range [][2]string{{"ſ", "S"}, {"K", "k"}, {"PRINZ", "prinz"}, {"\xff", "\xfe"}, {"\xff", "�"}} {
		if !strings.EqualFold(pair[0], pair[1]) || foldValue(pair[0]) != foldValue(pair[1]) {
			t.Fatalf("%q / %q: EqualFold %v, keys %q %q", pair[0], pair[1],
				strings.EqualFold(pair[0], pair[1]), foldValue(pair[0]), foldValue(pair[1]))
		}
	}
	if foldValue("prinz-1") != "prinz-1" || testing.AllocsPerRun(100, func() { foldValue("prinz-1") }) != 0 {
		t.Fatal("lower-case ASCII must be its own key, with no allocation")
	}
}

// TestIndexFollowsTheEntries: Modify of an indexed attribute moves the entry
// between posting lists, and once Delete has removed every entry no key is
// left behind.
func TestIndexFollowsTheEntries(t *testing.T) {
	d := seedDIT(t)
	prinz := MustParseDN("cn=Prinz,ou=CSCW,o=GMD")
	find := func(value string) int {
		t.Helper()
		got, err := d.Search(SearchRequest{Filter: Eq("cn", value)})
		if err != nil {
			t.Fatal(err)
		}
		return len(got)
	}
	if find("prinz") != 1 || find("wolfgang") != 0 {
		t.Fatal("seed tree: want cn=prinz posted once, cn=wolfgang not at all")
	}
	if err := d.Modify(prinz, Modification{Op: "replace", Attr: "cn", Value: "Wolfgang"}); err != nil {
		t.Fatal(err)
	}
	if find("prinz") != 0 || find("wolfgang") != 1 {
		t.Fatal("replace did not move the entry from cn=prinz to cn=wolfgang")
	}
	if list := d.eqix[eqKey{"cn", "prinz"}]; list != nil {
		t.Fatalf("cn=prinz still has a posting list: %v", list)
	}
	// A refused Modify leaves the postings alone.
	if err := d.Modify(prinz, Modification{Op: "add", Attr: "cn", Value: "X"}, Modification{Op: "bogus"}); err == nil {
		t.Fatal("bogus op accepted")
	}
	if find("x") != 0 || find("wolfgang") != 1 {
		t.Fatal("a refused Modify changed the index")
	}

	all, err := d.Search(SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	for d.Len() > 0 { // Delete takes leaves only: sweep until the parents have become leaves
		for _, e := range all {
			_ = d.Delete(e.DN)
		}
	}
	if len(d.eqix) != 0 {
		t.Fatalf("%d index keys left: %v", len(d.eqix), d.eqix)
	}
}

// TestDITHoldsNoHistory: a tree holds its entries and nothing of how they got
// there, so rewriting one entry many times leaves the heap where it was.
func TestDITHoldsNoHistory(t *testing.T) {
	d := seedDIT(t)
	prinz := MustParseDN("cn=Prinz,ou=CSCW,o=GMD")
	value := strings.Repeat("x", 1<<10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range 20000 {
		if err := d.Modify(prinz, Modification{Op: "replace", Attr: "description", Value: value}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d) // the tree must outlive the reading, or it is collected with what it holds
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("20000 rewrites of one entry grew the heap by %d KB", grew>>10)
	}
}
