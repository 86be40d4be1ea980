// Package directory implements the X.500-style directory service the paper
// names as the environment's standard information repository ("smooth
// integration and utilization of standard information repositories, for
// example, the X.500 directory service").
//
// It provides a hierarchical Directory Information Tree (DIT) of attributed
// entries named by distinguished names, LDAP-style search filters, modify
// operations and alias dereferencing. A DSA (server) exposes the service over
// rpc; DUA helpers wrap the client side.
package directory

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// RDN is a single relative distinguished name component, e.g. cn=Prinz.
type RDN struct {
	Attr  string
	Value string
}

// DN is a distinguished name: RDNs ordered from leaf to root, as in
// "cn=Prinz,ou=CSCW,o=GMD,c=DE".
type DN []RDN

// ErrBadDN reports a malformed distinguished name string.
var ErrBadDN = errors.New("directory: malformed DN")

// ParseDN parses a string form distinguished name. Empty input yields the
// root DN (len 0). Components are comma-separated attr=value pairs; a
// backslash escapes the byte after it (',', '=' and '\\' are the ones
// that need it; a dangling one at the end is dropped), and spaces around
// an attribute or value are trimmed. One pass finds the components: an
// attribute or value with no escape is a substring of s, so only the DN's
// slice of RDNs is allocated for it.
func ParseDN(s string) (DN, error) {
	if strings.TrimSpace(s) == "" {
		return DN{}, nil
	}
	dn := make(DN, 0, strings.Count(s, ",")+1)
	start, eq, eqs, escaped := 0, 0, 0, false
	for i := 0; i <= len(s); i++ {
		if i < len(s) {
			switch c := s[i]; {
			case escaped:
				escaped = false
				continue
			case c == '\\':
				escaped = true
				continue
			case c == '=':
				if eqs == 0 {
					eq = i
				}
				eqs++
				continue
			case c != ',':
				continue
			}
		}
		part := s[start:i]
		if eqs != 1 {
			return nil, fmt.Errorf("%w: component %q", ErrBadDN, part)
		}
		attr := strings.TrimSpace(unescapeDN(s[start:eq]))
		val := strings.TrimSpace(unescapeDN(s[eq+1 : i]))
		if attr == "" || val == "" {
			return nil, fmt.Errorf("%w: empty attribute or value in %q", ErrBadDN, part)
		}
		dn = append(dn, RDN{Attr: strings.ToLower(attr), Value: val})
		start, eqs = i+1, 0
	}
	return dn, nil
}

// MustParseDN is ParseDN panicking on error; for literals in tests and
// examples.
func MustParseDN(s string) DN {
	dn, err := ParseDN(s)
	if err != nil {
		panic(err)
	}
	return dn
}

// String renders the DN in string form.
func (d DN) String() string {
	return string(d.appendText(make([]byte, 0, d.textLen())))
}

// appendText appends the DN's string form: each RDN's, comma-separated.
func (d DN) appendText(b []byte) []byte {
	for i, r := range d {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendEscaped(b, strings.ToLower(r.Attr)), '=')
		b = appendEscaped(b, r.Value)
	}
	return b
}

// textLen is the length of the DN's string form.
func (d DN) textLen() int {
	n := max(len(d)-1, 0)
	for _, r := range d {
		n += escapedLen(strings.ToLower(r.Attr)) + 1 + escapedLen(r.Value)
	}
	return n
}

// Normalized returns a canonical key for map lookups: lowercase attributes,
// case-folded values.
func (d DN) Normalized() string {
	var b strings.Builder
	for i, r := range d {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strings.ToLower(r.Attr))
		b.WriteByte('=')
		b.WriteString(strings.ToLower(r.Value))
	}
	return b.String()
}

// Equal reports whether two DNs name the same entry (case-insensitive
// values, per X.500 caseIgnoreMatch).
func (d DN) Equal(other DN) bool {
	return d.Normalized() == other.Normalized()
}

// Parent returns the DN with the leaf RDN removed; the root's parent is the
// root itself.
func (d DN) Parent() DN {
	if len(d) == 0 {
		return DN{}
	}
	out := make(DN, len(d)-1)
	copy(out, d[1:])
	return out
}

// Child returns this DN extended with a new leaf RDN.
func (d DN) Child(attr, value string) DN {
	out := make(DN, 0, len(d)+1)
	out = append(out, RDN{Attr: strings.ToLower(attr), Value: value})
	out = append(out, d...)
	return out
}

// RDNString returns the leaf RDN in string form, or "" for the root.
func (d DN) RDNString() string {
	return d[:min(len(d), 1)].String()
}

// IsRoot reports whether this is the empty (root) DN.
func (d DN) IsRoot() bool { return len(d) == 0 }

// Depth returns the number of RDN components.
func (d DN) Depth() int { return len(d) }

// IsDescendantOf reports whether d sits strictly below ancestor in the tree.
func (d DN) IsDescendantOf(ancestor DN) bool {
	if len(d) <= len(ancestor) {
		return false
	}
	offset := len(d) - len(ancestor)
	for i, r := range ancestor {
		mine := d[offset+i]
		if !strings.EqualFold(mine.Attr, r.Attr) || !strings.EqualFold(mine.Value, r.Value) {
			return false
		}
	}
	return true
}

// dnSpecial reports whether the byte takes a backslash in a DN's string
// form.
func dnSpecial(c byte) bool { return c == ',' || c == '=' || c == '\\' }

// appendEscaped appends s with a backslash before each DN-special byte.
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if dnSpecial(s[i]) {
			b = append(b, '\\')
		}
		b = append(b, s[i])
	}
	return b
}

// escapedLen is the length of s escaped.
func escapedLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		if dnSpecial(s[i]) {
			n++
		}
	}
	return n
}

// unescapeDN removes backslash escapes; s itself when it holds none.
func unescapeDN(s string) string {
	if strings.IndexByte(s, '\\') < 0 {
		return s
	}
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

// Attributes is a multi-valued attribute set. Keys are case-insensitive and
// stored lowercase.
type Attributes map[string][]string

// NewAttributes builds an attribute set from alternating key, value pairs.
func NewAttributes(kv ...string) Attributes {
	if len(kv)%2 != 0 {
		panic("directory: NewAttributes needs key/value pairs")
	}
	a := make(Attributes, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		a.Add(kv[i], kv[i+1])
	}
	return a
}

// Add appends a value to an attribute.
func (a Attributes) Add(attr, value string) {
	k := strings.ToLower(attr)
	a[k] = append(a[k], value)
}

// Replace sets the attribute to exactly the given values.
func (a Attributes) Replace(attr string, values ...string) {
	k := strings.ToLower(attr)
	if len(values) == 0 {
		delete(a, k)
		return
	}
	a[k] = append([]string(nil), values...)
}

// First returns the first value of the attribute, or "".
func (a Attributes) First(attr string) string {
	vals := a[strings.ToLower(attr)]
	if len(vals) == 0 {
		return ""
	}
	return vals[0]
}

// Has reports whether the attribute holds the given value
// (case-insensitive). An empty value tests mere presence.
func (a Attributes) Has(attr, value string) bool {
	vals, ok := a[strings.ToLower(attr)]
	if !ok {
		return false
	}
	if value == "" {
		return true
	}
	for _, v := range vals {
		if strings.EqualFold(v, value) {
			return true
		}
	}
	return false
}

// Clone deep-copies the attribute set.
func (a Attributes) Clone() Attributes {
	out := make(Attributes, len(a))
	for k, vals := range a {
		out[k] = append([]string(nil), vals...)
	}
	return out
}

// Names returns the sorted attribute names.
func (a Attributes) Names() []string {
	names := make([]string, 0, len(a))
	for k := range a {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
