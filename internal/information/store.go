package information

import (
	"sync"

	"mocca/internal/vclock"
)

// Store is the storage engine beneath a Space: object rows under one lock.
// It knows nothing about schemas, access control, events or replication
// policy — the Space (the engine) layers those on top. The split is what lets one site host its Space over
// a local replica store while a future backend swaps the in-memory maps
// for persistence without touching the engine.
//
// A stored row is immutable: the store never edits a row it holds, it
// only replaces the pointer. That is what lets the replication plane
// share rows instead of copying them — Peek, Range, the Exec callback's
// argument and Exec's result are all the stored row itself, read-only
// for whoever receives it. Exec returns the stored row; a callback
// returns a new row, never an edited argument. Get copies: it serves code
// that may keep and change what it is given. No row is ever removed.
type Store struct {
	mu      sync.RWMutex
	objects map[string]*Object
}

// NewStore creates an empty in-memory store.
func NewStore() *Store {
	return &Store{objects: make(map[string]*Object)}
}

// Len returns the number of stored objects.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.objects)
}

// Get returns a copy of the row for id.
func (st *Store) Get(id string) (*Object, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	obj, ok := st.objects[id]
	if !ok {
		return nil, false
	}
	return obj.clone(), true
}

// Peek returns the row for id as stored, without copying it: read-only,
// and it never changes after the call (a later write replaces it).
func (st *Store) Peek(id string) (*Object, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	obj, ok := st.objects[id]
	return obj, ok
}

// Exec runs fn against the row for id under the store's write lock —
// the atomic read-modify-write primitive every engine mutation builds on.
// fn receives the stored row (nil if absent), read-only, and returns the
// row to store in its place, giving it up; returning nil stores nothing
// (read-only or aborted). The result is the row now stored, or nil.
func (st *Store) Exec(id string, fn func(cur *Object) (*Object, error)) (*Object, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	next, err := fn(st.objects[id])
	if err != nil {
		return nil, err
	}
	if next == nil {
		return nil, nil
	}
	st.objects[id] = next
	return next, nil
}

// Range calls fn for every stored row under the store's read lock, in
// unspecified order, stopping early when fn returns false. fn receives
// the stored row, so a caller that keeps one clones it. fn must treat the
// row as read-only, must not retain it past its return (other backends
// hand out transient rows), and must not call back into the store.
func (st *Store) Range(fn func(*Object) bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, obj := range st.objects {
		if !fn(obj) {
			return
		}
	}
}

// Digest summarises every row's version vector — the anti-entropy
// exchange unit: small enough to ship every round, sufficient for a peer
// to compute exactly which rows the other side is missing.
func (st *Store) Digest() map[string]vclock.Version {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make(map[string]vclock.Version, len(st.objects))
	for id, obj := range st.objects {
		out[id] = obj.VV.Clone()
	}
	return out
}
