package directory

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
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
			parts = append(parts, attr+"="+escapeDN(v))
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
