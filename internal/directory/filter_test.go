package directory

import (
	"errors"
	"testing"
	"testing/quick"
)

func personAttrs() Attributes {
	return NewAttributes(
		"objectclass", "person",
		"cn", "Wolfgang Prinz",
		"sn", "Prinz",
		"ou", "CSCW",
		"age", "35",
		"mail", "prinz@gmd.de",
	)
}

func TestFilterMatching(t *testing.T) {
	a := personAttrs()
	tests := []struct {
		name   string
		filter string
		want   bool
	}{
		{"eq hit", "(cn=Wolfgang Prinz)", true},
		{"eq case-insensitive", "(CN=wolfgang prinz)", true},
		{"eq miss", "(cn=Tom Rodden)", false},
		{"present hit", "(mail=*)", true},
		{"present miss", "(fax=*)", false},
		{"substr prefix", "(cn=Wolf*)", true},
		{"substr infix", "(cn=*gang*)", true},
		{"substr multi-star", "(mail=*@*.de)", true},
		{"substr miss", "(cn=Tom*)", false},
		{"ge numeric hit", "(age>=30)", true},
		{"ge numeric miss", "(age>=40)", false},
		{"le numeric hit", "(age<=35)", true},
		{"le string", "(sn<=Z)", true},
		{"and hit", "(&(ou=CSCW)(mail=*))", true},
		{"and miss", "(&(ou=CSCW)(fax=*))", false},
		{"or hit", "(|(ou=ODP)(ou=CSCW))", true},
		{"or miss", "(|(ou=ODP)(ou=HCI))", false},
		{"not", "(!(ou=ODP))", true},
		{"all", "", true},
		{"nested", "(&(|(ou=CSCW)(ou=ODP))(!(fax=*)))", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var f Filter = allFilter{} // what Search runs for a request without a filter
			if tt.filter != "" {
				f = MustParseFilter(tt.filter)
			}
			if got := f.Matches(a); got != tt.want {
				t.Fatalf("%s.Matches = %v, want %v", f, got, tt.want)
			}
		})
	}
}

func TestParseFilter(t *testing.T) {
	a := personAttrs()
	tests := []struct {
		in   string
		want bool
	}{
		{"(cn=Wolfgang Prinz)", true},
		{"(cn=wolf*)", true},
		{"(mail=*)", true},
		{"(fax=*)", false},
		{"(age>=30)", true},
		{"(age<=30)", false},
		{"(&(objectclass=person)(ou=CSCW))", true},
		{"(&(objectclass=person)(ou=ODP))", false},
		{"(|(ou=ODP)(ou=CSCW))", true},
		{"(!(ou=ODP))", true},
		{"(&(|(ou=CSCW)(ou=ODP))(!(sn=Rodden)))", true},
		{"(cn=\\(weird\\))", false}, // escaped parens parse, just don't match
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			f, err := ParseFilter(tt.in)
			if err != nil {
				t.Fatalf("ParseFilter(%q): %v", tt.in, err)
			}
			if got := f.Matches(a); got != tt.want {
				t.Fatalf("%q matched %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestParseFilterErrors(t *testing.T) {
	for _, bad := range []string{
		"", "cn=x", "(cn=x", "(cn=x))", "(&)", "(|)", "(!)",
		"(=x)", "(cn=)", "(cn>x)", "(cn<x)", "((cn=x))",
	} {
		if f, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%q) = %v, want error", bad, f)
		}
	}
	if _, err := ParseFilter("(cn=x"); !errors.Is(err, ErrBadFilter) {
		t.Fatal("error does not wrap ErrBadFilter")
	}
}

func TestFilterStringRoundTrip(t *testing.T) {
	filters := []Filter{
		MustParseFilter("(cn=Prinz)"),
		MustParseFilter("(mail=*)"),
		MustParseFilter("(cn=W*z)"),
		MustParseFilter("(age>=10)"),
		MustParseFilter("(age<=99)"),
		MustParseFilter("(&(a=1)(|(b=2)(!(c=*))))"),
		MustParseFilter("(cn=\\(weird\\))"),
	}
	attrs := NewAttributes("cn", "Prinz", "mail", "x", "age", "50", "a", "1", "b", "2")
	for _, f := range filters {
		parsed, err := ParseFilter(f.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", f.String(), err)
		}
		if parsed.Matches(attrs) != f.Matches(attrs) {
			t.Fatalf("round-trip changed semantics for %q", f.String())
		}
	}
}

func TestGlobMatch(t *testing.T) {
	tests := []struct {
		pattern, s string
		want       bool
	}{
		{"", "", true},
		{"*", "", true},
		{"*", "anything", true},
		{"a*", "abc", true},
		{"*c", "abc", true},
		{"a*c", "abc", true},
		{"a*c", "ac", true},
		{"a*b*c", "aXbYc", true},
		{"a*b*c", "acb", false},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"**", "x", true},
	}
	for _, tt := range tests {
		if got := globMatch(tt.pattern, tt.s); got != tt.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", tt.pattern, tt.s, got, tt.want)
		}
	}
}

func TestQuickParseFilterNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = ParseFilter(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// leaf is an equality filter in string form on one of personAttrs' names,
// holding value escaped as the parser reads it.
func leaf(attr uint8, value string) string {
	names := personAttrs().Names()
	return "(" + names[int(attr)%len(names)] + "=" + escapeFilter(value) + ")"
}

func TestQuickNotInvolution(t *testing.T) {
	attrs := personAttrs()
	f := func(attr uint8, val string) bool {
		if val == "" {
			return true // (attr=) does not parse
		}
		inner := leaf(attr, val)
		return MustParseFilter("(!(!"+inner+"))").Matches(attrs) == MustParseFilter(inner).Matches(attrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	attrs := personAttrs()
	f := func(a1 uint8, v1 string, a2 uint8, v2 string) bool {
		if v1 == "" || v2 == "" {
			return true // (attr=) does not parse
		}
		p, q := leaf(a1, v1), leaf(a2, v2)
		lhs := MustParseFilter("(!(&" + p + q + "))").Matches(attrs)
		rhs := MustParseFilter("(|(!" + p + ")(!" + q + "))").Matches(attrs)
		return lhs == rhs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
