package information

import "mocca/internal/vclock"

// Backend is the storage surface a Space drives: the keeping of object
// rows — the shared information model anti-entropy replicates, and nothing
// beside it — with one atomic read-modify-write primitive (Exec) and the
// one replication query (Digest). A link between rows is a field of a row
// (the other row's id): the digest sees it and anti-entropy carries it.
// It is the seam between the information viewpoint and its engineering
// realisation — the engine, anti-entropy replication and the groupware
// applications are all written against this interface and cannot tell
// backends apart.
//
// Two implementations exist: the in-memory Store (the default, rows live
// only as long as the process) and logstore.Store (a disk-backed tiered
// log-structured store — memtable over sorted segment files — whose
// replica survives a site crash). The contract on rows is one rule: a
// stored row never changes, it is only replaced. Get, Snapshot and Remove
// return deep copies the caller may keep and edit. Peek, Range, the Exec
// callback's argument and Exec's result lend the stored row — the
// in-memory Store's, or logstore's while the row is in its memtable; a
// row logstore holds only in a segment is decoded from disk for the call:
// read-only either way. Exec returns the stored row; a callback returns a
// new row, never an edited argument, and gives up the row it returns.
//
// A tiered backend need not hold all rows in memory. The interface is
// written so it never has to materialise more than the caller asked
// for: Range and Snapshot stream rows one at a time (a disk-backed
// implementation may merge memtable and segment cursors under the
// hood), Get/Exec are point lookups, and only Digest is inherently
// O(rows) — it summarises every version vector. Sync rounds do not
// call it: they compare the Space's incremental DigestTree and fetch
// the rows they need by id.
type Backend interface {
	// Len returns the number of stored objects.
	Len() int
	// Get returns a copy of the row for id.
	Get(id string) (*Object, bool)
	// Peek is the borrowed point read, the sibling of Range: the row as
	// stored, read-only, and it never changes after the call.
	Peek(id string) (*Object, bool)
	// Exec runs fn against the row for id under the backend's write
	// exclusion — the atomic read-modify-write primitive every engine
	// mutation builds on. fn receives the stored row (nil if absent) and
	// returns the row to store in its place; returning nil stores nothing.
	// The result is the row now stored, read-only.
	Exec(id string, fn func(cur *Object) (*Object, error)) (*Object, error)
	// Snapshot returns copies of every row matching pred (nil pred = all).
	Snapshot(pred func(*Object) bool) []*Object
	// Remove deletes the row for id, returning a copy of the removed row.
	// A missing id is not an error: (nil, nil). Space.Drop, the local
	// eviction of one row, is its caller.
	Remove(id string) (*Object, error)
	// Range calls fn for every stored row under the backend's read
	// exclusion, in unspecified order, stopping early when fn returns
	// false. fn may receive the stored row (in-memory Store) or a
	// transient decode of an on-disk row (tiered logstore): either way
	// it must treat the row as read-only, must not retain it past its
	// return, and must not call back into the backend. This is the
	// streaming primitive the Space uses to rebuild its Merkle digest
	// tree over recovered state — it must work without the backend ever
	// materialising the full row set in memory.
	Range(fn func(*Object) bool)
	// Digest summarises every row's version vector: two replicas hold
	// the same state exactly when their digests are equal.
	Digest() map[string]vclock.Version
}

// Store implements Backend.
var _ Backend = (*Store)(nil)
