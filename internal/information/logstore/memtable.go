package logstore

import (
	"sort"
	"sync"

	"mocca/internal/information"
	"mocca/internal/vclock"
)

// memtable is the in-memory tier of the store: the rows written since the
// last flush, tombstones for rows removed since the last flush (a removal
// must mask any older version still sitting in a segment), and the full
// relationship graph — the one type both backends hold. Rows migrate to
// immutable segment files when the memtable flushes; the graph never does —
// it is small (edges, not rows), consulted on every Relate for cycle
// checks, and persisted through the manifest instead.
//
// The memtable has its own lock (and the graph its own) so reads can be
// served while the store mutex serialises mutations; writers hold both
// (store mutex for ordering, this lock for the map writes).
type memtable struct {
	information.RelationGraph

	mu    sync.RWMutex
	rows  map[string]*information.Object
	tombs map[string]struct{}
}

func newMemtable() *memtable {
	return &memtable{
		rows:  make(map[string]*information.Object),
		tombs: make(map[string]struct{}),
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
// exist in a segment, and strips every relationship edge touching it.
func (m *memtable) kill(id string, tomb bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.rows, id)
	if tomb {
		m.tombs[id] = struct{}{}
	}
	m.Strip(id)
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
