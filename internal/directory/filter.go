package directory

import (
	"errors"
	"fmt"
	"strings"
)

// Filter selects directory entries, mirroring X.500/LDAP search filters.
type Filter interface {
	// Matches reports whether the entry's attributes satisfy the filter.
	Matches(a Attributes) bool
	// String renders the filter in LDAP parenthesised form.
	String() string
}

// ErrBadFilter reports an unparsable filter string.
var ErrBadFilter = errors.New("directory: malformed filter")

// Eq matches entries where attr holds value (case-insensitive).
func Eq(attr, value string) Filter { return eqFilter{strings.ToLower(attr), value} }

type eqFilter struct{ attr, value string }

func (f eqFilter) Matches(a Attributes) bool { return a.Has(f.attr, f.value) }
func (f eqFilter) String() string            { return "(" + f.attr + "=" + escapeFilter(f.value) + ")" }

// presentFilter matches entries that have any value for attr.
type presentFilter struct{ attr string }

func (f presentFilter) Matches(a Attributes) bool { return a.Has(f.attr, "") }
func (f presentFilter) String() string            { return "(" + f.attr + "=*)" }

// substrFilter matches with "*" wildcards, e.g. (cn=w*prinz*).
type substrFilter struct{ attr, pattern string }

func (f substrFilter) Matches(a Attributes) bool {
	for _, v := range a[f.attr] {
		if globMatch(strings.ToLower(f.pattern), strings.ToLower(v)) {
			return true
		}
	}
	return false
}

func (f substrFilter) String() string { return "(" + f.attr + "=" + escapeFilter(f.pattern) + ")" }

// cmpFilter matches entries where some value of attr is >= value (ge) or
// <= value: string order, numeric when both sides parse as integers.
type cmpFilter struct {
	attr  string
	value string
	ge    bool
}

func (f cmpFilter) Matches(a Attributes) bool {
	for _, v := range a[f.attr] {
		if f.ge && compareValues(v, f.value) >= 0 {
			return true
		}
		if !f.ge && compareValues(v, f.value) <= 0 {
			return true
		}
	}
	return false
}

func (f cmpFilter) String() string {
	op := ">="
	if !f.ge {
		op = "<="
	}
	return "(" + f.attr + op + escapeFilter(f.value) + ")"
}

// andFilter matches when all sub-filters match.
type andFilter []Filter

func (f andFilter) Matches(a Attributes) bool {
	for _, sub := range f {
		if !sub.Matches(a) {
			return false
		}
	}
	return true
}

func (f andFilter) String() string { return compositeString("&", f) }

// orFilter matches when any sub-filter matches.
type orFilter []Filter

func (f orFilter) Matches(a Attributes) bool {
	for _, sub := range f {
		if sub.Matches(a) {
			return true
		}
	}
	return false
}

func (f orFilter) String() string { return compositeString("|", f) }

// notFilter inverts a filter.
type notFilter struct{ inner Filter }

func (f notFilter) Matches(a Attributes) bool { return !f.inner.Matches(a) }
func (f notFilter) String() string            { return "(!" + f.inner.String() + ")" }

// allFilter matches every entry: a search without a filter.
type allFilter struct{}

func (allFilter) Matches(Attributes) bool { return true }
func (allFilter) String() string          { return "(objectclass=*)" }

func compositeString(op string, fs []Filter) string {
	var b strings.Builder
	b.WriteString("(")
	b.WriteString(op)
	for _, f := range fs {
		b.WriteString(f.String())
	}
	b.WriteString(")")
	return b.String()
}

// compareValues compares numerically when both parse as integers, else by
// case-folded string order.
func compareValues(a, b string) int {
	ai, aok := parseInt(a)
	bi, bok := parseInt(b)
	if aok && bok {
		switch {
		case ai < bi:
			return -1
		case ai > bi:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(strings.ToLower(a), strings.ToLower(b))
}

func parseInt(s string) (int64, bool) {
	if s == "" {
		return 0, false
	}
	neg := false
	i := 0
	if s[0] == '-' {
		neg = true
		i = 1
		if len(s) == 1 {
			return 0, false
		}
	}
	var v int64
	for ; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// globMatch matches pattern with '*' wildcards against s.
func globMatch(pattern, s string) bool {
	// Classic two-pointer glob with backtracking on the last star.
	var pi, si int
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '*':
			star, mark = pi, si
			pi++
		case pi < len(pattern) && pattern[pi] == s[si]:
			pi++
			si++
		case star >= 0:
			mark++
			si = mark
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}

func escapeFilter(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '(' || c == ')' || c == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(c)
	}
	return b.String()
}

// ParseFilter parses an LDAP-style parenthesised filter string, e.g.
//
//	(&(objectclass=person)(|(ou=CSCW)(ou=ODP))(!(status=retired)))
//
// Supported operators: & | ! = >= <= and "*" wildcards in values.
func ParseFilter(s string) (Filter, error) {
	p := &filterParser{input: strings.TrimSpace(s)}
	f, err := p.parse()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("%w: trailing input at %d", ErrBadFilter, p.pos)
	}
	return f, nil
}

// MustParseFilter is ParseFilter panicking on error.
func MustParseFilter(s string) Filter {
	f, err := ParseFilter(s)
	if err != nil {
		panic(err)
	}
	return f
}

type filterParser struct {
	input string
	pos   int
}

func (p *filterParser) parse() (Filter, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	if p.pos >= len(p.input) {
		return nil, fmt.Errorf("%w: unexpected end", ErrBadFilter)
	}
	var f Filter
	var err error
	switch p.input[p.pos] {
	case '&':
		p.pos++
		subs, serr := p.parseList()
		if serr != nil {
			return nil, serr
		}
		f = andFilter(subs)
	case '|':
		p.pos++
		subs, serr := p.parseList()
		if serr != nil {
			return nil, serr
		}
		f = orFilter(subs)
	case '!':
		p.pos++
		inner, serr := p.parse()
		if serr != nil {
			return nil, serr
		}
		f = notFilter{inner}
	default:
		f, err = p.parseSimple()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *filterParser) parseList() ([]Filter, error) {
	var subs []Filter
	for p.pos < len(p.input) && p.input[p.pos] == '(' {
		f, err := p.parse()
		if err != nil {
			return nil, err
		}
		subs = append(subs, f)
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("%w: empty composite", ErrBadFilter)
	}
	return subs, nil
}

// parseSimple handles attr=value, attr>=value, attr<=value, attr=* and
// wildcard values.
func (p *filterParser) parseSimple() (Filter, error) {
	start := p.pos
	for p.pos < len(p.input) && !strings.ContainsRune("=<>()", rune(p.input[p.pos])) {
		p.pos++
	}
	attr := strings.TrimSpace(p.input[start:p.pos])
	if attr == "" {
		return nil, fmt.Errorf("%w: missing attribute at %d", ErrBadFilter, start)
	}
	if p.pos >= len(p.input) {
		return nil, fmt.Errorf("%w: missing operator", ErrBadFilter)
	}
	var op string
	switch p.input[p.pos] {
	case '=':
		op = "="
		p.pos++
	case '>', '<':
		op = string(p.input[p.pos])
		p.pos++
		if p.pos >= len(p.input) || p.input[p.pos] != '=' {
			return nil, fmt.Errorf("%w: expected '=' after %q", ErrBadFilter, op)
		}
		op += "="
		p.pos++
	default:
		return nil, fmt.Errorf("%w: bad operator %q", ErrBadFilter, p.input[p.pos])
	}
	vstart := p.pos
	var val strings.Builder
	for p.pos < len(p.input) && p.input[p.pos] != ')' {
		c := p.input[p.pos]
		if c == '\\' && p.pos+1 < len(p.input) {
			p.pos++
			c = p.input[p.pos]
		}
		val.WriteByte(c)
		p.pos++
	}
	value := val.String()
	if p.pos == vstart && op == "=" {
		return nil, fmt.Errorf("%w: empty value", ErrBadFilter)
	}
	switch {
	case op != "=":
		return cmpFilter{strings.ToLower(attr), value, op == ">="}, nil
	case value == "*":
		return presentFilter{strings.ToLower(attr)}, nil
	case strings.Contains(value, "*"):
		return substrFilter{strings.ToLower(attr), value}, nil
	}
	return Eq(attr, value), nil
}

func (p *filterParser) expect(c byte) error {
	if p.pos >= len(p.input) || p.input[p.pos] != c {
		return fmt.Errorf("%w: expected %q at %d", ErrBadFilter, string(c), p.pos)
	}
	p.pos++
	return nil
}
