package logstore

import (
	"sort"
	"sync"

	"mocca/internal/information"
	"mocca/internal/vclock"
)

// memtable is the in-memory tier of the store: the rows written since the
// last flush. They migrate to an immutable segment file when the memtable
// flushes.
//
// The memtable has its own lock so reads can be served while the store
// mutex serialises mutations; writers hold both (store mutex for ordering,
// this lock for the map writes).
type memtable struct {
	mu   sync.RWMutex
	rows map[string]*information.Object
}

func newMemtable() *memtable {
	return &memtable{rows: make(map[string]*information.Object)}
}

// get returns the row for id; found means the memtable holds it and the
// segments must not be consulted.
func (m *memtable) get(id string) (obj *information.Object, found bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	obj, found = m.rows[id]
	return obj, found
}

// put stores the row.
func (m *memtable) put(obj *information.Object) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows[obj.ID] = obj
}

// flushEntry is one sorted unit of a flush, scan or merge. A memtable row
// carries obj, the stored row itself. A segment row carries rec, the record
// payload as read and already walked (information.ScanObject), and vv, the
// encoded version vector inside it; both alias the iterator's buffer and
// are valid until its next call, and nothing is decoded until a consumer
// asks (row, version).
type flushEntry struct {
	id  string
	obj *information.Object
	rec []byte
	vv  []byte
}

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

// entries returns every row sorted by id — the input of a
// segment write and of merged iteration. Row pointers are the live rows;
// callers must respect the read-only contract.
func (m *memtable) entries() []flushEntry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]flushEntry, 0, len(m.rows))
	for id, obj := range m.rows {
		out = append(out, flushEntry{id: id, obj: obj})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// clear drops all rows after a successful flush (the
// caller holds the store mutex, so nothing was written concurrently).
func (m *memtable) clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows = make(map[string]*information.Object)
}
