package logstore

import (
	"fmt"
	"sort"
	"sync"

	"mocca/internal/information"
	"mocca/internal/vclock"
)

// memtable is the in-memory tier of the store: the rows written since the
// last flush, tombstones for rows removed since the last flush (a removal
// must mask any older version still sitting in a segment), and the full
// relationship graph. Rows migrate to immutable segment files when the
// memtable flushes; the graph never does — it is small (edges, not rows),
// consulted on every Relate for cycle checks, and persisted through the
// manifest instead.
//
// The memtable has its own lock so reads can be served while the store
// mutex serialises mutations; writers hold both (store mutex for
// ordering, this lock for the map writes).
type memtable struct {
	mu    sync.RWMutex
	rows  map[string]*information.Object
	tombs map[string]struct{}
	rels  map[string]map[information.RelKind][]string // from -> kind -> to ids
}

func newMemtable() *memtable {
	return &memtable{
		rows:  make(map[string]*information.Object),
		tombs: make(map[string]struct{}),
		rels:  make(map[string]map[information.RelKind][]string),
	}
}

// get returns the live row for id, or reports a tombstone. found means
// the memtable answers for this id (row or tombstone) and the segments
// must not be consulted.
func (m *memtable) get(id string) (obj *information.Object, tomb, found bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if obj, ok := m.rows[id]; ok {
		return obj, false, true
	}
	if _, ok := m.tombs[id]; ok {
		return nil, true, true
	}
	return nil, false, false
}

// put stores the row, clearing any tombstone for its id.
func (m *memtable) put(obj *information.Object) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows[obj.ID] = obj
	delete(m.tombs, obj.ID)
}

// kill removes the row for id, records a tombstone when the id may still
// exist in a segment, and strips every relationship edge touching it —
// a dangling edge would fail the endpoint check when the graph is
// reloaded.
func (m *memtable) kill(id string, tomb bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.rows, id)
	if tomb {
		m.tombs[id] = struct{}{}
	}
	delete(m.rels, id)
	for from, kinds := range m.rels {
		for kind, tos := range kinds {
			kept := tos[:0]
			for _, to := range tos {
				if to != id {
					kept = append(kept, to)
				}
			}
			if len(kept) == 0 {
				delete(kinds, kind)
			} else {
				kinds[kind] = kept
			}
		}
		if len(kinds) == 0 {
			delete(m.rels, from)
		}
	}
}

// pending reports how many row mutations (rows + tombstones) a flush
// would have to write.
func (m *memtable) pending() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.rows) + len(m.tombs)
}

// flushEntry is one sorted unit of a flush, scan or merge. A memtable row
// carries obj, the stored row itself. A segment row carries rec, the record
// payload as read and already walked (information.ScanObject), and vv, the
// encoded version vector inside it; both alias the iterator's buffer and
// are valid until its next call, and nothing is decoded until a consumer
// asks (row, version). A tombstone carries neither.
type flushEntry struct {
	id  string
	obj *information.Object
	rec []byte
	vv  []byte
}

func (e *flushEntry) tomb() bool { return e.obj == nil && e.rec == nil }

// row returns the entry's row: the memtable's own, lent, or a fresh decode
// of the segment record.
func (e *flushEntry) row() (*information.Object, error) {
	if e.obj != nil {
		return e.obj, nil
	}
	obj, _, err := information.DecodeObject(e.rec[1:])
	return obj, err
}

// version returns the row's version vector as the caller's own: a copy of
// the memtable row's, or a decode of the segment record's, which reads the
// vector and nothing else.
func (e *flushEntry) version() (vclock.Version, error) {
	if e.obj != nil {
		return e.obj.VV.Clone(), nil
	}
	vv, _, err := vclock.DecodeVersion(e.vv)
	return vv, err
}

// entries returns every row and tombstone sorted by id — the input of a
// segment write and of merged iteration. Row pointers are the live rows;
// callers must respect the read-only contract.
func (m *memtable) entries() []flushEntry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]flushEntry, 0, len(m.rows)+len(m.tombs))
	for id, obj := range m.rows {
		out = append(out, flushEntry{id: id, obj: obj})
	}
	for id := range m.tombs {
		out = append(out, flushEntry{id: id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// clear drops all rows and tombstones after a successful flush (the
// caller holds the store mutex, so nothing was written concurrently).
// The relation graph stays.
func (m *memtable) clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows = make(map[string]*information.Object)
	m.tombs = make(map[string]struct{})
}

// --- relationships -------------------------------------------------------

// relate records a typed relationship edge. has answers whether an id
// exists anywhere in the store (memtable or segments) — the endpoint
// check spans tiers even though the graph itself is memory-resident.
// Composition and dependency must stay acyclic, exactly as in
// information.Store.
func (m *memtable) relate(from string, kind information.RelKind, to string, has func(string) bool) error {
	if !has(from) {
		return fmt.Errorf("%w: %q", information.ErrUnknownObject, from)
	}
	if !has(to) {
		return fmt.Errorf("%w: %q", information.ErrUnknownObject, to)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reachableLocked(to, kind, from) || from == to {
		return fmt.Errorf("%w: %s -[%s]-> %s", information.ErrCycle, from, kind, to)
	}
	if m.rels[from] == nil {
		m.rels[from] = make(map[information.RelKind][]string)
	}
	for _, existing := range m.rels[from][kind] {
		if existing == to {
			return nil
		}
	}
	m.rels[from][kind] = append(m.rels[from][kind], to)
	return nil
}

// reachableLocked reports whether target is reachable from start over kind.
func (m *memtable) reachableLocked(start string, kind information.RelKind, target string) bool {
	seen := map[string]bool{}
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == target {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		queue = append(queue, m.rels[cur][kind]...)
	}
	return false
}

// loadRelation installs one edge without validation — the recovery path
// for manifest-persisted edges, which were validated when written.
func (m *memtable) loadRelation(rel information.Relation) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rels[rel.From] == nil {
		m.rels[rel.From] = make(map[information.RelKind][]string)
	}
	m.rels[rel.From][rel.Kind] = append(m.rels[rel.From][rel.Kind], rel.To)
}

// related returns directly related object ids, sorted.
func (m *memtable) related(from string, kind information.RelKind) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := append([]string(nil), m.rels[from][kind]...)
	sort.Strings(out)
	return out
}

// Relations dumps every relationship edge, sorted by (from, kind, to) —
// the unit the manifest persists alongside the segment list.
func (m *memtable) Relations() []information.Relation {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []information.Relation
	for from, kinds := range m.rels {
		for kind, tos := range kinds {
			for _, to := range tos {
				out = append(out, information.Relation{From: from, Kind: kind, To: to})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.To < b.To
	})
	return out
}

// dependents returns ids of objects that relate TO the given id over kind.
func (m *memtable) dependents(to string, kind information.RelKind) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for from, kinds := range m.rels {
		for _, t := range kinds[kind] {
			if t == to {
				out = append(out, from)
			}
		}
	}
	sort.Strings(out)
	return out
}

// closure returns all ids transitively reachable from id over kind.
func (m *memtable) closure(from string, kind information.RelKind) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	seen := map[string]bool{from: true}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		next := append([]string(nil), m.rels[cur][kind]...)
		sort.Strings(next)
		for _, n := range next {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
				queue = append(queue, n)
			}
		}
	}
	return out
}
