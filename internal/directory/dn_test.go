package directory

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mocca/internal/wire"
)

func TestParseDN(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{"cn=Prinz,ou=CSCW,o=GMD,c=DE", "cn=Prinz,ou=CSCW,o=GMD,c=DE", false},
		{"", "", false},
		{"   ", "", false},
		{"cn=Navarro\\, Leandro,o=UPC", "cn=Navarro\\, Leandro,o=UPC", false},
		{"CN=Rodden, OU = Computing , O=Lancaster", "cn=Rodden,ou=Computing,o=Lancaster", false},
		{"novalue", "", true},
		{"=x", "", true},
		{"cn=", "", true},
		{"cn=a=b", "", true},
	}
	for _, tt := range tests {
		dn, err := ParseDN(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseDN(%q) = %v, want error", tt.in, dn)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDN(%q): %v", tt.in, err)
			continue
		}
		if got := dn.String(); got != tt.want {
			t.Errorf("ParseDN(%q).String() = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestDNEqualCaseInsensitive(t *testing.T) {
	a := MustParseDN("cn=Prinz,o=GMD")
	b := MustParseDN("CN=prinz,O=gmd")
	if !a.Equal(b) {
		t.Fatal("case-variant DNs not equal")
	}
	c := MustParseDN("cn=Rodden,o=GMD")
	if a.Equal(c) {
		t.Fatal("distinct DNs reported equal")
	}
}

func TestParentChild(t *testing.T) {
	dn := MustParseDN("cn=Prinz,ou=CSCW,o=GMD")
	p := dn.Parent()
	if p.String() != "ou=CSCW,o=GMD" {
		t.Fatalf("Parent = %q", p.String())
	}
	back := p.Child("cn", "Prinz")
	if !back.Equal(dn) {
		t.Fatalf("Child(Parent) = %q, want %q", back, dn)
	}
	root := DN{}
	if !root.Parent().IsRoot() {
		t.Fatal("root parent is not root")
	}
	if dn.RDNString() != "cn=Prinz" {
		t.Fatalf("RDNString = %q", dn.RDNString())
	}
}

func TestIsDescendantOf(t *testing.T) {
	org := MustParseDN("o=GMD")
	ou := MustParseDN("ou=CSCW,o=GMD")
	person := MustParseDN("cn=Prinz,ou=CSCW,o=GMD")
	other := MustParseDN("cn=Prinz,ou=CSCW,o=UPC")
	if !person.IsDescendantOf(org) || !person.IsDescendantOf(ou) {
		t.Fatal("descendant not detected")
	}
	if person.IsDescendantOf(person) {
		t.Fatal("entry is its own descendant")
	}
	if other.IsDescendantOf(org) {
		t.Fatal("foreign subtree matched")
	}
	if !person.IsDescendantOf(DN{}) {
		t.Fatal("everything should descend from root")
	}
}

func TestDNRoundTripQuick(t *testing.T) {
	// Any parseable DN must round-trip through String/ParseDN.
	f := func(vals [3]string) bool {
		var parts []string
		for i, v := range vals {
			v = strings.TrimSpace(v)
			if v == "" || len(v) > 50 {
				return true
			}
			attr := []string{"cn", "ou", "o"}[i]
			parts = append(parts, attr+"="+referenceEscape(v))
		}
		s := strings.Join(parts, ",")
		dn, err := ParseDN(s)
		if err != nil {
			return true // some generated values are legitimately unparseable
		}
		again, err := ParseDN(dn.String())
		if err != nil {
			return false
		}
		return again.Equal(dn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAttributes(t *testing.T) {
	a := NewAttributes("objectClass", "person", "CN", "Tom Rodden")
	a.Add("mail", "tom@lancaster.ac.uk")
	a.Add("mail", "rodden@comp.lancs.ac.uk")

	if got := a.First("cn"); got != "Tom Rodden" {
		t.Fatalf("First(cn) = %q", got)
	}
	if !a.Has("MAIL", "TOM@LANCASTER.AC.UK") {
		t.Fatal("Has is not case-insensitive")
	}
	if !a.Has("mail", "") {
		t.Fatal("presence test failed")
	}
	if a.Has("phone", "") {
		t.Fatal("absent attribute reported present")
	}

	a.Replace("title", "researcher", "professor")
	if len(a["title"]) != 2 {
		t.Fatalf("Replace values = %v", a["title"])
	}
	a.Replace("title")
	if a.Has("title", "") {
		t.Fatal("Replace with no values should delete")
	}
}

func TestAttributesCloneIsDeep(t *testing.T) {
	a := NewAttributes("cn", "x")
	b := a.Clone()
	b.Add("cn", "y")
	if len(a["cn"]) != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestAttributesNamesSorted(t *testing.T) {
	a := NewAttributes("zz", "1", "aa", "2", "mm", "3")
	names := a.Names()
	want := []string{"aa", "mm", "zz"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
}

func TestBadDNError(t *testing.T) {
	_, err := ParseDN("justtext")
	if !errors.Is(err, ErrBadDN) {
		t.Fatalf("err = %v, want ErrBadDN", err)
	}
}

// referenceParseDN is the parser ParseDN replaced, kept as its reference:
// it splits on unescaped commas, splits each part again on unescaped '='
// and unescapes each side through a builder of its own.
func referenceParseDN(s string) (DN, error) {
	if strings.TrimSpace(s) == "" {
		return DN{}, nil
	}
	var dn DN
	for _, part := range referenceSplit(s, ',') {
		kv := referenceSplit(part, '=')
		if len(kv) != 2 {
			return nil, fmt.Errorf("%w: component %q", ErrBadDN, part)
		}
		attr := strings.TrimSpace(referenceUnescape(kv[0]))
		val := strings.TrimSpace(referenceUnescape(kv[1]))
		if attr == "" || val == "" {
			return nil, fmt.Errorf("%w: empty attribute or value in %q", ErrBadDN, part)
		}
		dn = append(dn, RDN{Attr: strings.ToLower(attr), Value: val})
	}
	return dn, nil
}

// referenceSplit splits s on sep, honouring backslash escapes.
func referenceSplit(s string, sep byte) []string {
	var parts []string
	var cur strings.Builder
	escaped := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case escaped:
			cur.WriteByte('\\')
			cur.WriteByte(c)
			escaped = false
		case c == '\\':
			escaped = true
		case c == sep:
			parts = append(parts, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if escaped {
		cur.WriteByte('\\') // dangling escape kept literally
	}
	parts = append(parts, cur.String())
	return parts
}

// referenceUnescape removes backslash escapes.
func referenceUnescape(s string) string {
	var b strings.Builder
	escaped := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if escaped {
			b.WriteByte(c)
			escaped = false
			continue
		}
		if c == '\\' {
			escaped = true
			continue
		}
		b.WriteByte(c)
	}
	return b.String()
}

// referenceDNString is the string form DN.String rendered before it wrote
// into one buffer: each RDN escaped on its own, joined by commas.
func referenceDNString(d DN) string {
	parts := make([]string, len(d))
	for i, r := range d {
		parts[i] = referenceEscape(strings.ToLower(r.Attr)) + "=" + referenceEscape(r.Value)
	}
	return strings.Join(parts, ",")
}

func referenceEscape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == ',' || c == '=' || c == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// FuzzParseDNMatchesReference: for every input ParseDN returns the DN the
// reference parser returns, or the same error; a DN it returns renders
// the reference's string form, in String and in the search answer's
// entry encoding, and renders its normalized key as the RDNs joined.
func FuzzParseDNMatchesReference(f *testing.F) {
	for _, s := range []string{
		"", "  ", "cn=Prinz,ou=CSCW,o=GMD,c=DE", "CN = Prinz , O=GMD", "cn=a\\,b,o=x",
		"cn=a\\=b", "cn=a\\", "cn=\\ ", "cn=a=b", "cn", "=v", "cn=,o=x", "cn=x,,o=y",
		"cn=x,", ",", "\\,=\\=", "cn=İ,o=ſ", "cn=\xff\\\xfe", "a=b,c=d,e=f,g=h,i=j,k=l,m=n,o=p,q=r",
		"ou=ou003,o=mocca", "cn=\t x \t",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseDN(s)
		want, werr := referenceParseDN(s)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("ParseDN(%q) error %v, reference %v", s, err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseDN(%q) = %#v, reference %#v", s, got, want)
		}
		if err != nil {
			return
		}
		if text, ref := got.String(), referenceDNString(got); text != ref {
			t.Fatalf("ParseDN(%q).String() = %q, reference %q", s, text, ref)
		}
		if enc, ref := appendEntry(nil, &Entry{DN: got}), wire.AppendString(nil, referenceDNString(got)); !bytes.HasPrefix(enc, ref) {
			t.Fatalf("the entry encoding of ParseDN(%q) is %x, want the DN as %x", s, enc, ref)
		}
		keys := make([]string, len(got))
		for i, r := range got {
			keys[i] = strings.ToLower(r.Attr) + "=" + strings.ToLower(r.Value)
		}
		if key := got.Normalized(); key != strings.Join(keys, ",") {
			t.Fatalf("ParseDN(%q).Normalized() = %q, want %q", s, key, strings.Join(keys, ","))
		}
	})
}
