package directory

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// Entry is a node in the Directory Information Tree.
type Entry struct {
	DN    DN
	Attrs Attributes
	// On a DIT's stored copy only: the normalized DN and the parent's.
	key, parent string
}

// Clone deep-copies the entry.
func (e *Entry) Clone() *Entry {
	dn := make(DN, len(e.DN))
	copy(dn, e.DN)
	return &Entry{DN: dn, Attrs: e.Attrs.Clone()}
}

// Scope selects how much of the subtree a search visits.
type Scope int

// Search scopes, mirroring X.511.
const (
	ScopeBase Scope = iota + 1
	ScopeOneLevel
	ScopeSubtree
)

// String implements fmt.Stringer.
func (s Scope) String() string {
	switch s {
	case ScopeBase:
		return "base"
	case ScopeOneLevel:
		return "one"
	case ScopeSubtree:
		return "sub"
	default:
		return fmt.Sprintf("scope(%d)", int(s))
	}
}

// The attribute that marks an alias entry, per X.501.
const AliasAttr = "aliasedobjectname"

// Errors returned by DIT operations.
var (
	ErrNoSuchEntry = errors.New("directory: no such entry")
	ErrEntryExists = errors.New("directory: entry already exists")
	ErrNoParent    = errors.New("directory: parent entry does not exist")
	ErrAliasLoop   = errors.New("directory: alias dereference loop")
	ErrSizeLimit   = errors.New("directory: size limit exceeded")
)

// DIT is an in-memory Directory Information Tree. It is safe for concurrent
// use. The zero value is NOT ready; use NewDIT.
type DIT struct {
	mu      sync.RWMutex
	entries map[string]*Entry // normalized DN -> entry
	childix map[string]map[string]bool
	// eqix is the equality index: each entry posted once under every
	// (attribute, folded value) it holds. Search re-runs the whole filter on
	// what it finds here: candidates are a superset, the filter decides.
	eqix map[eqKey][]*Entry
}

type eqKey struct{ attr, value string }

// NewDIT creates an empty tree containing only the implicit root.
func NewDIT() *DIT {
	return &DIT{
		entries: make(map[string]*Entry),
		childix: make(map[string]map[string]bool),
		eqix:    make(map[eqKey][]*Entry),
	}
}

// postLocked adds e to the posting list of every value it holds. An entry
// is posted whole, so a value it holds twice, or two that fold alike, finds
// e at the tail of the list and is posted once.
func (d *DIT) postLocked(e *Entry) {
	for attr, vals := range e.Attrs {
		for _, v := range vals {
			k := eqKey{attr, foldValue(v)}
			if list := d.eqix[k]; len(list) == 0 || list[len(list)-1] != e {
				d.eqix[k] = append(list, e)
			}
		}
	}
}

// foldValue maps a value to its index key: two values get the same key exactly
// when strings.EqualFold holds for them, and lower-case ASCII is its own key.
func foldValue(s string) string { return strings.Map(foldRune, s) }

// foldRune sends a rune to the least of its unicode.SimpleFold orbit, lower-
// cased when that is ASCII: "ſ" and the Kelvin sign meet "s" and "k", which
// strings.ToLower keeps apart.
func foldRune(r rune) rune {
	least := r
	for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
		least = min(least, f)
	}
	if 'A' <= least && least <= 'Z' {
		least += 'a' - 'A'
	}
	return least
}

// Len returns the number of entries (excluding the implicit root).
func (d *DIT) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// Add inserts an entry, linked below its parent and posted in the index. Its
// parent must exist (or be the root).
func (d *DIT) Add(dn DN, attrs Attributes) error {
	if dn.IsRoot() {
		return fmt.Errorf("%w: cannot add root", ErrEntryExists)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	key := dn.Normalized()
	if _, ok := d.entries[key]; ok {
		return fmt.Errorf("%w: %s", ErrEntryExists, dn)
	}
	parent := dn.Parent()
	pk := parent.Normalized()
	if !parent.IsRoot() {
		if _, ok := d.entries[pk]; !ok {
			return fmt.Errorf("%w: %s", ErrNoParent, parent)
		}
	}
	if attrs == nil {
		attrs = make(Attributes)
	}
	e := &Entry{DN: dn, Attrs: attrs.Clone(), key: key, parent: key[len(key)-len(pk):]}
	d.entries[key] = e
	if d.childix[pk] == nil {
		d.childix[pk] = make(map[string]bool)
	}
	d.childix[pk][key] = true
	d.postLocked(e)
	return nil
}

// Read returns a copy of the entry at dn.
func (d *DIT) Read(dn DN) (*Entry, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	entry, ok := d.entries[dn.Normalized()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchEntry, dn)
	}
	return entry.Clone(), nil
}

// SearchRequest parameterises Search.
type SearchRequest struct {
	Base   DN
	Scope  Scope
	Filter Filter
	// SizeLimit caps results; zero means unlimited.
	SizeLimit int
	// DerefAliases follows alias entries encountered during the search.
	DerefAliases bool
}

// covers reports whether the scope takes in an entry depth levels below the base.
func (s Scope) covers(depth int) bool {
	return s == ScopeSubtree || s == ScopeBase && depth == 0 || s == ScopeOneLevel && depth == 1
}

// Search returns the entries under Base per Scope that match Filter, sorted
// by DN. If the size limit is hit the partial result — the matches a walk of
// the subtree reaches first — is returned together with ErrSizeLimit.
//
// Candidates come from the equality index when the filter is an equality
// term or an And holding one, and from the subtree walk for every other
// filter and whenever aliases are dereferenced (an alias stands for an entry
// the index files elsewhere). Either way each candidate in scope meets the
// whole filter and the size limit in turn.
//
// The entries are lent: they are the DIT's own, which it never edits (it
// has no Modify or Delete, and Add stores a new entry), so the caller reads
// them — encodes them, say — and edits none. Read returns a copy.
func (d *DIT) Search(req SearchRequest) ([]*Entry, error) {
	if req.Filter == nil {
		req.Filter = allFilter{}
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
			out = append(out, target)
		}
		return nil
	}
	var err error
	if posted, ok := d.postedLocked(req.Filter); ok && !req.DerefAliases {
		err = d.visitPostedLocked(posted, baseKey, req, visit)
	} else {
		err = d.walkLocked(baseKey, 0, req.Scope, visit)
	}
	if err != nil && !errors.Is(err, ErrSizeLimit) {
		return nil, err
	}
	sortEntries(out)
	return out, err
}

// walkLocked visits the entries in scope under key in pre-order: an entry
// before its children, siblings by normalized key.
func (d *DIT) walkLocked(key string, depth int, scope Scope, visit func(*Entry) error) error {
	if entry, ok := d.entries[key]; ok && scope.covers(depth) {
		if err := visit(entry); err != nil {
			return err
		}
	}
	if scope == ScopeBase || scope == ScopeOneLevel && depth >= 1 {
		return nil
	}
	children := make([]string, 0, len(d.childix[key]))
	for ck := range d.childix[key] {
		children = append(children, ck)
	}
	sort.Strings(children)
	for _, ck := range children {
		if err := d.walkLocked(ck, depth+1, scope, visit); err != nil {
			return err
		}
	}
	return nil
}

// postedLocked returns the shortest posting list among the equality terms
// every match of f must satisfy, and false when f has none. (attr=) with an
// empty value is Has's presence test, which no posting list answers.
func (d *DIT) postedLocked(f Filter) ([]*Entry, bool) {
	switch f := f.(type) {
	case eqFilter:
		return d.eqix[eqKey{strings.ToLower(f.attr), foldValue(f.value)}], f.value != ""
	case andFilter:
		var best []*Entry
		found := false
		for _, sub := range f {
			if list, ok := d.postedLocked(sub); ok && (!found || len(list) < len(best)) {
				best, found = list, true
			}
		}
		return best, found
	}
	return nil, false
}

// visitPostedLocked visits the posted entries in scope under base. Only when
// they outnumber the size limit does their order decide the result; they are
// then visited in the walk's order, so the same partial subset comes back.
func (d *DIT) visitPostedLocked(list []*Entry, base string, req SearchRequest, visit func(*Entry) error) error {
	var room [8]*Entry
	cands := room[:0]
	for _, e := range list {
		if depth := d.depthLocked(e, base); depth >= 0 && req.Scope.covers(depth) {
			cands = append(cands, e)
		}
	}
	if req.SizeLimit > 0 && len(cands) > req.SizeLimit {
		slices.SortFunc(cands, func(a, b *Entry) int { return d.walkOrderLocked(a, b, base) })
	}
	for _, e := range cands {
		if err := visit(e); err != nil {
			return err
		}
	}
	return nil
}

// depthLocked returns how many child links lead from the entry keyed base
// (the implicit root when empty) down to e, or -1 when none do. Only Add
// (below an existing parent) shapes the tree, so the links and the DNs
// agree; it follows the links, as the walk does, so that the index answers
// what the walk answers should they ever part.
func (d *DIT) depthLocked(e *Entry, base string) int {
	depth := 0
	for e.key != base {
		if !d.childix[e.parent][e.key] {
			return -1
		}
		depth++
		if e.parent == base {
			break
		}
		if e = d.entries[e.parent]; e == nil {
			return -1
		}
	}
	return depth
}

// walkOrderLocked compares two entries under base by the order the walk
// reaches them: lift the deeper one to the other's level, then both to the
// siblings under their common ancestor.
func (d *DIT) walkOrderLocked(x, y *Entry, base string) int {
	dx, dy := d.depthLocked(x, base), d.depthLocked(y, base)
	for n := dx; n > dy; n-- {
		x = d.entries[x.parent]
	}
	for n := dy; n > dx; n-- {
		y = d.entries[y.parent]
	}
	if x == y {
		return dx - dy
	}
	for x.parent != y.parent {
		x, y = d.entries[x.parent], d.entries[y.parent]
	}
	return strings.Compare(x.key, y.key)
}

// derefLocked resolves an alias chain, bounded against loops.
func (d *DIT) derefLocked(e *Entry, hops int) (*Entry, error) {
	if hops > 8 {
		return nil, fmt.Errorf("%w: via %s", ErrAliasLoop, e.DN)
	}
	targetStr := e.Attrs.First(AliasAttr)
	if targetStr == "" {
		return e, nil
	}
	dn, err := ParseDN(targetStr)
	if err != nil {
		return nil, fmt.Errorf("directory: alias %s: %w", e.DN, err)
	}
	target, ok := d.entries[dn.Normalized()]
	if !ok {
		return nil, fmt.Errorf("%w: alias target %s", ErrNoSuchEntry, dn)
	}
	if target.Attrs.Has(AliasAttr, "") {
		return d.derefLocked(target, hops+1)
	}
	return target, nil
}

// sortEntries orders stored entries by DN, whose normalized form each
// holds as its key.
func sortEntries(entries []*Entry) {
	slices.SortFunc(entries, func(a, b *Entry) int { return strings.Compare(a.key, b.key) })
}

// Common object classes used across the repository.
const (
	ClassPerson       = "person"
	ClassOrgUnit      = "organizationalunit"
	ClassOrganization = "organization"
	ClassApplication  = "applicationentity"
	ClassRole         = "organizationalrole"
	ClassResource     = "resource"
	ClassActivity     = "groupactivity"
)

// PersonEntry builds conventional attributes for a person.
func PersonEntry(cn, surname, mail string) Attributes {
	a := NewAttributes(
		"objectclass", ClassPerson,
		"cn", cn,
		"sn", surname,
	)
	if mail != "" {
		a.Add("mail", mail)
	}
	return a
}
