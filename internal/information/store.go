package information

import (
	"fmt"
	"sync"

	"mocca/internal/vclock"
)

// Store is the storage engine beneath a Space: object rows under one lock,
// and the relationship graph every backend holds (RelationGraph). It knows nothing about schemas,
// access control, events or replication policy — the Space (the engine)
// layers those on top. The split is what lets one site host its Space over
// a local replica store while a future backend swaps the in-memory maps
// for persistence without touching the engine.
//
// A stored row is immutable: the store never edits a row it holds, it
// only replaces the pointer. That is what lets the replication plane
// share rows instead of copying them — Peek, Range, the Exec callback's
// argument and Exec's result are all the stored row itself, read-only
// for whoever receives it. Exec returns the stored row; a callback
// returns a new row, never an edited argument. Get, Snapshot and Remove
// copy: they serve code that may keep and change what it is given.
type Store struct {
	mu      sync.RWMutex
	objects map[string]*Object
	rels    RelationGraph
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

// Snapshot returns copies of every row matching pred (nil pred = all),
// in unspecified order.
func (st *Store) Snapshot(pred func(*Object) bool) []*Object {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []*Object
	for _, obj := range st.objects {
		if pred == nil || pred(obj) {
			out = append(out, obj.clone())
		}
	}
	return out
}

// Has reports whether a row for id is stored, without copying it.
func (st *Store) Has(id string) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	_, ok := st.objects[id]
	return ok
}

// Remove deletes the row for id and every relationship edge touching it
// (RelationGraph.Strip says why), returning a copy of the removed row;
// (nil, nil) when absent.
func (st *Store) Remove(id string) (*Object, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	obj, ok := st.objects[id]
	if !ok {
		return nil, nil
	}
	delete(st.objects, id)
	st.rels.Strip(id)
	return obj.clone(), nil
}

// Range calls fn for every stored row under the store's read lock, in
// unspecified order, stopping early when fn returns false. fn receives
// the stored row — this is the streaming alternative to Snapshot for
// callers (like a durable backend writing a snapshot file) that must not
// materialise a copy of every row at once. fn must treat the row as
// read-only, must not retain it past its return (other backends hand out
// transient rows), and must not call back into the store.
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

// --- relationships -------------------------------------------------------

// Relate records a typed relationship; composition and dependency must
// stay acyclic. Both endpoints must exist.
func (st *Store) Relate(from string, kind RelKind, to string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, id := range [2]string{from, to} {
		if _, ok := st.objects[id]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownObject, id)
		}
	}
	rel := Relation{From: from, Kind: kind, To: to}
	if err := st.rels.Check(rel); err != nil {
		return err
	}
	st.rels.Add(rel)
	return nil
}

// Related returns directly related object ids, sorted.
func (st *Store) Related(from string, kind RelKind) []string { return st.rels.Related(from, kind) }

// Dependents returns ids of objects that relate TO the given id over kind.
func (st *Store) Dependents(to string, kind RelKind) []string { return st.rels.Dependents(to, kind) }

// Closure returns all ids transitively reachable from id over kind.
func (st *Store) Closure(from string, kind RelKind) []string { return st.rels.Closure(from, kind) }
