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

// String renders the RDN with escaping.
func (r RDN) String() string {
	return escapeDN(strings.ToLower(r.Attr)) + "=" + escapeDN(r.Value)
}

// DN is a distinguished name: RDNs ordered from leaf to root, as in
// "cn=Prinz,ou=CSCW,o=GMD,c=DE".
type DN []RDN

// ErrBadDN reports a malformed distinguished name string.
var ErrBadDN = errors.New("directory: malformed DN")

// ParseDN parses a string form distinguished name. Empty input yields the
// root DN (len 0). Components are comma-separated attr=value pairs;
// backslash escapes ',', '=', '\', and leading/trailing spaces are trimmed
// unless escaped.
func ParseDN(s string) (DN, error) {
	if strings.TrimSpace(s) == "" {
		return DN{}, nil
	}
	var dn DN
	for _, part := range splitUnescaped(s, ',') {
		kv := splitUnescaped(part, '=')
		if len(kv) != 2 {
			return nil, fmt.Errorf("%w: component %q", ErrBadDN, part)
		}
		attr := strings.TrimSpace(unescapeDN(kv[0]))
		val := strings.TrimSpace(unescapeDN(kv[1]))
		if attr == "" || val == "" {
			return nil, fmt.Errorf("%w: empty attribute or value in %q", ErrBadDN, part)
		}
		dn = append(dn, RDN{Attr: strings.ToLower(attr), Value: val})
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
	parts := make([]string, len(d))
	for i, r := range d {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

// Normalized returns a canonical key for map lookups: lowercase attributes,
// case-folded values.
func (d DN) Normalized() string {
	parts := make([]string, len(d))
	for i, r := range d {
		parts[i] = strings.ToLower(r.Attr) + "=" + strings.ToLower(r.Value)
	}
	return strings.Join(parts, ",")
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
	if len(d) == 0 {
		return ""
	}
	return d[0].String()
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

// splitUnescaped splits s on sep, honouring backslash escapes.
func splitUnescaped(s string, sep byte) []string {
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

// escapeDN escapes DN-special characters in a value.
func escapeDN(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ',' || c == '=' || c == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(c)
	}
	return b.String()
}

// unescapeDN removes backslash escapes.
func unescapeDN(s string) string {
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

// Remove deletes a specific value, or the whole attribute when value is "".
func (a Attributes) Remove(attr, value string) {
	k := strings.ToLower(attr)
	if value == "" {
		delete(a, k)
		return
	}
	vals := a[k]
	out := vals[:0]
	for _, v := range vals {
		if !strings.EqualFold(v, value) {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		delete(a, k)
		return
	}
	a[k] = out
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
