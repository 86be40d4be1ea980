package directory

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Entry is a node in the Directory Information Tree.
type Entry struct {
	DN    DN
	Attrs Attributes
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
	ErrNoSuchEntry   = errors.New("directory: no such entry")
	ErrEntryExists   = errors.New("directory: entry already exists")
	ErrNoParent      = errors.New("directory: parent entry does not exist")
	ErrHasChildren   = errors.New("directory: entry has children")
	ErrAliasLoop     = errors.New("directory: alias dereference loop")
	ErrSizeLimit     = errors.New("directory: size limit exceeded")
	ErrBadChangeSeq  = errors.New("directory: replication sequence gap")
	ErrReadOnlyShard = errors.New("directory: shadow is read-only")
)

// ChangeKind discriminates changelog records.
type ChangeKind int

// Changelog record kinds.
const (
	ChangeAdd ChangeKind = iota + 1
	ChangeDelete
	ChangeModify
)

// Change is a replicated modification. Seq numbers are dense and start at 1.
type Change struct {
	Seq   uint64
	Kind  ChangeKind
	DN    string
	Attrs Attributes // full post-image for Add/Modify
}

// DIT is an in-memory Directory Information Tree. It is safe for concurrent
// use. The zero value is NOT ready; use NewDIT.
type DIT struct {
	mu      sync.RWMutex
	entries map[string]*Entry // normalized DN -> entry
	childix map[string]map[string]bool
	log     []Change
	seq     uint64
}

// NewDIT creates an empty tree containing only the implicit root.
func NewDIT() *DIT {
	return &DIT{
		entries: make(map[string]*Entry),
		childix: make(map[string]map[string]bool),
	}
}

// Len returns the number of entries (excluding the implicit root).
func (d *DIT) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// Add inserts an entry. Its parent must exist (or be the root).
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
	if !parent.IsRoot() {
		if _, ok := d.entries[parent.Normalized()]; !ok {
			return fmt.Errorf("%w: %s", ErrNoParent, parent)
		}
	}
	if attrs == nil {
		attrs = make(Attributes)
	}
	d.entries[key] = &Entry{DN: dn, Attrs: attrs.Clone()}
	pk := parent.Normalized()
	if d.childix[pk] == nil {
		d.childix[pk] = make(map[string]bool)
	}
	d.childix[pk][key] = true
	d.appendChangeLocked(Change{Kind: ChangeAdd, DN: dn.String(), Attrs: attrs.Clone()})
	return nil
}

// Delete removes a leaf entry.
func (d *DIT) Delete(dn DN) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := dn.Normalized()
	if _, ok := d.entries[key]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchEntry, dn)
	}
	if len(d.childix[key]) > 0 {
		return fmt.Errorf("%w: %s", ErrHasChildren, dn)
	}
	delete(d.entries, key)
	delete(d.childix, key)
	delete(d.childix[dn.Parent().Normalized()], key)
	d.appendChangeLocked(Change{Kind: ChangeDelete, DN: dn.String()})
	return nil
}

// Modification is one step of a Modify operation.
type Modification struct {
	Op    string // "add", "replace", "remove"
	Attr  string
	Value string // for remove: "" removes the whole attribute
	// Values used by replace (all values at once).
	Values []string
}

// Modify applies modifications atomically to one entry.
func (d *DIT) Modify(dn DN, mods ...Modification) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	entry, ok := d.entries[dn.Normalized()]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchEntry, dn)
	}
	// Stage on a copy so a bad op mid-list leaves the entry untouched.
	staged := entry.Attrs.Clone()
	for _, m := range mods {
		switch m.Op {
		case "add":
			staged.Add(m.Attr, m.Value)
		case "replace":
			if len(m.Values) > 0 {
				staged.Replace(m.Attr, m.Values...)
			} else {
				staged.Replace(m.Attr, m.Value)
			}
		case "remove":
			staged.Remove(m.Attr, m.Value)
		default:
			return fmt.Errorf("directory: unknown modification op %q", m.Op)
		}
	}
	entry.Attrs = staged
	d.appendChangeLocked(Change{Kind: ChangeModify, DN: dn.String(), Attrs: staged.Clone()})
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

// List returns copies of the immediate children of dn, sorted by DN.
func (d *DIT) List(dn DN) ([]*Entry, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	key := dn.Normalized()
	if !dn.IsRoot() {
		if _, ok := d.entries[key]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchEntry, dn)
		}
	}
	var out []*Entry
	for ck := range d.childix[key] {
		out = append(out, d.entries[ck].Clone())
	}
	sortEntries(out)
	return out, nil
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

// Search walks the tree under Base per Scope, returning entries matching
// Filter sorted by DN. If the size limit is hit the partial result is
// returned together with ErrSizeLimit.
func (d *DIT) Search(req SearchRequest) ([]*Entry, error) {
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
		if req.Scope == ScopeBase && depth >= 0 {
			if depth == 0 && len(d.childix[key]) == 0 {
				return nil
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

// Changes returns the changelog records with Seq > after, for replication.
func (d *DIT) Changes(after uint64) []Change {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []Change
	for _, c := range d.log {
		if c.Seq > after {
			out = append(out, cloneChange(c))
		}
	}
	return out
}

// LastSeq returns the sequence number of the newest change.
func (d *DIT) LastSeq() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.seq
}

// CompactLog drops changelog records with Seq <= upTo; shadows that have
// not consumed them must full-resync.
func (d *DIT) CompactLog(upTo uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	keep := d.log[:0]
	for _, c := range d.log {
		if c.Seq > upTo {
			keep = append(keep, c)
		}
	}
	d.log = keep
}

// Apply replays a replicated change onto this tree (used by shadow DSAs).
// Sequence numbers must arrive densely.
func (d *DIT) Apply(c Change) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c.Seq != d.seq+1 {
		return fmt.Errorf("%w: have %d, got %d", ErrBadChangeSeq, d.seq, c.Seq)
	}
	dn, err := ParseDN(c.DN)
	if err != nil {
		return err
	}
	key := dn.Normalized()
	switch c.Kind {
	case ChangeAdd:
		if _, ok := d.entries[key]; ok {
			return fmt.Errorf("%w: %s", ErrEntryExists, dn)
		}
		d.entries[key] = &Entry{DN: dn, Attrs: c.Attrs.Clone()}
		pk := dn.Parent().Normalized()
		if d.childix[pk] == nil {
			d.childix[pk] = make(map[string]bool)
		}
		d.childix[pk][key] = true
	case ChangeDelete:
		delete(d.entries, key)
		delete(d.childix, key)
		delete(d.childix[dn.Parent().Normalized()], key)
	case ChangeModify:
		entry, ok := d.entries[key]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchEntry, dn)
		}
		entry.Attrs = c.Attrs.Clone()
	default:
		return fmt.Errorf("directory: unknown change kind %d", c.Kind)
	}
	d.seq = c.Seq
	d.log = append(d.log, cloneChange(c))
	return nil
}

// Snapshot returns a full copy of all entries, for shadow bootstrap.
func (d *DIT) Snapshot() ([]*Entry, uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*Entry, 0, len(d.entries))
	for _, e := range d.entries {
		out = append(out, e.Clone())
	}
	sortEntries(out)
	return out, d.seq
}

// LoadSnapshot replaces the tree contents with the given entries (sorted by
// depth so parents precede children) and sets the change sequence.
func (d *DIT) LoadSnapshot(entries []*Entry, seq uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.entries = make(map[string]*Entry, len(entries))
	d.childix = make(map[string]map[string]bool)
	sorted := append([]*Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].DN.Depth() < sorted[j].DN.Depth() })
	for _, e := range sorted {
		key := e.DN.Normalized()
		d.entries[key] = e.Clone()
		pk := e.DN.Parent().Normalized()
		if d.childix[pk] == nil {
			d.childix[pk] = make(map[string]bool)
		}
		d.childix[pk][key] = true
	}
	d.seq = seq
	d.log = nil
	return nil
}

func (d *DIT) appendChangeLocked(c Change) {
	d.seq++
	c.Seq = d.seq
	d.log = append(d.log, c)
}

func cloneChange(c Change) Change {
	out := c
	if c.Attrs != nil {
		out.Attrs = c.Attrs.Clone()
	}
	return out
}

func sortEntries(entries []*Entry) {
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].DN.Normalized() < entries[j].DN.Normalized()
	})
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
