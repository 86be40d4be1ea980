package information

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mocca/internal/access"
	"mocca/internal/id"
	"mocca/internal/vclock"
)

// Object is a shared information object.
type Object struct {
	ID     string
	Schema string
	Owner  string
	Fields map[string]string
	// Version is the replica-local optimistic-concurrency number: the
	// total count of writes this replica has observed on the object
	// (VV.Sum()). Converged replicas agree on it.
	Version uint64
	// VV is the object's per-site version vector — the causal record that
	// lets replicas order or detect concurrent cross-site updates.
	VV vclock.Version
	// Site names the replica that performed the object's latest write.
	Site    string
	Created time.Time
	Updated time.Time
}

// clone deep-copies the object; a nil object stays nil.
func (o *Object) clone() *Object {
	if o == nil {
		return nil
	}
	out := *o
	out.Fields = cloneFields(o.Fields)
	out.VV = o.VV.Clone()
	return &out
}

// Clone returns a deep copy of the object. Backends use it where their
// contract promises the caller a row of its own (Get, Snapshot, Remove).
func (o *Object) Clone() *Object { return o.clone() }

// RelKind is an inter-object relationship, per the paper's "composition,
// dependencies".
type RelKind string

// Relationship kinds.
const (
	RelComposedOf  RelKind = "composed-of" // parent -> part
	RelDependsOn   RelKind = "depends-on"  // dependent -> dependency
	RelDerivedFrom RelKind = "derived-from"
)

// Errors of the space layer.
var (
	ErrUnknownObject = errors.New("information: unknown object")
	ErrDenied        = errors.New("information: access denied")
	ErrConflict      = errors.New("information: version conflict")
	ErrCycle         = errors.New("information: relationship cycle")
)

// Conflict describes a concurrent cross-site update that was resolved
// deterministically (site-ordered last-writer-wins).
type Conflict struct {
	ObjectID   string
	WinnerSite string
	LoserSite  string
	// LoserFields is the overwritten state, so applications (or a human)
	// can recover what the losing write said.
	LoserFields map[string]string
}

// Event notifies subscribers of a change.
type Event struct {
	// Kind is "put", "update", "share", "relate" for local writes,
	// "apply" / "conflict" for state arriving from a peer replica, and
	// "evict" for rows migrated off this replica by placement.
	Kind string
	// Object is read-only; for "apply" and "conflict" it is the replica's
	// own row, shared by every subscriber (other kinds carry a copy).
	Object *Object
	Actor  string
	At     time.Time
	// Conflict carries resolution detail on "conflict" events only.
	Conflict *Conflict
}

// Space is the engine of the shared information space: schema validation,
// access guards, change notification and replica merge policy, layered
// over a Store that does the actual keeping of rows.
//
// A Space is one site's replica. Writes land locally (ticking the site's
// version-vector entry); the replica layer propagates them to peers and
// feeds remote writes back in through Adopt. A row is copied only where
// it crosses into application code (the results of Get, GetAs, Query, Put
// and Update, the events of local writes); Fetch, Range, Adopt and the
// "apply"/"conflict" events share stored rows read-only or hand them over.
type Space struct {
	registry *SchemaRegistry
	acl      *access.System
	clock    vclock.Clock
	ids      *id.Generator
	site     string
	store    Backend
	tree     *DigestTree

	mu    sync.RWMutex
	subs  []subscription
	stats SpaceStats
}

// SpaceStats counts space activity.
type SpaceStats struct {
	Puts     int64
	Updates  int64
	Reads    int64
	Denials  int64
	Notifies int64
	// Applied and Conflicts count remote state merged in by replication.
	Applied   int64
	Conflicts int64
	// Evictions counts rows dropped off this replica by placement
	// migration (Drop).
	Evictions int64
}

type subscription struct {
	schema string // "" = all
	fn     func(Event)
}

// SpaceOption configures a Space.
type SpaceOption func(*Space)

// WithIDs sets the id generator.
func WithIDs(g *id.Generator) SpaceOption {
	return func(s *Space) { s.ids = g }
}

// WithSite names the replica this space embodies; the name keys the
// object version vectors and breaks last-writer-wins ties, so it must be
// unique across the replica set. Defaults to "local".
func WithSite(site string) SpaceOption {
	return func(s *Space) { s.site = site }
}

// WithBackend selects the storage backend beneath the engine — e.g. a
// disk-backed logstore.Store so the replica survives a site crash. A nil
// backend keeps the in-memory default.
func WithBackend(b Backend) SpaceOption {
	return func(s *Space) {
		if b != nil {
			s.store = b
		}
	}
}

// NewSpace creates a space over the given schema registry and ACL system.
// A nil acl disables access control (everything allowed). Replicas of one
// logical space share the registry and the ACL and differ only by site.
func NewSpace(registry *SchemaRegistry, acl *access.System, clock vclock.Clock, opts ...SpaceOption) *Space {
	s := &Space{
		registry: registry,
		acl:      acl,
		clock:    clock,
		site:     "local",
		store:    NewStore(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.ids == nil {
		s.ids = id.New()
	}
	// Build the Merkle digest summary over whatever the backend already
	// holds: empty for a fresh in-memory store, the recovered replica for
	// a durable backend re-opened after a crash — so a recovered site
	// re-enters anti-entropy with the exact root it crashed with.
	s.tree = NewDigestTree()
	s.store.Range(func(o *Object) bool {
		s.tree.Update(o.ID, o.VV)
		return true
	})
	return s
}

// Registry exposes the schema registry.
func (s *Space) Registry() *SchemaRegistry { return s.registry }

// Site returns the replica's site name.
func (s *Space) Site() string { return s.site }

// Stats returns a snapshot of the counters.
func (s *Space) Stats() SpaceStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// resource names the guarded resource for an object id.
func resource(objID string) string { return "info/" + objID }

// can checks the ACL (nil ACL admits everything).
func (s *Space) can(principal string, op access.Op, objID string) bool {
	if s.acl == nil {
		return true
	}
	return s.acl.Can(principal, op, resource(objID))
}

// Put creates an object owned by actor, validating against its schema. The
// owner receives read/write/share grants on it.
func (s *Space) Put(actor, schemaName string, fields map[string]string) (*Object, error) {
	schema, err := s.registry.Schema(schemaName)
	if err != nil {
		return nil, err
	}
	if err := schema.Validate(fields); err != nil {
		return nil, err
	}
	now := s.clock.Now()
	obj := &Object{
		ID:      s.ids.Next("info"),
		Schema:  schema.Name,
		Owner:   actor,
		Fields:  cloneFields(fields),
		Version: 1,
		VV:      vclock.NewVersion(s.site),
		Site:    s.site,
		Created: now,
		Updated: now,
	}
	stored, err := s.store.Exec(obj.ID, func(*Object) (*Object, error) { return obj, nil })
	if err != nil {
		return nil, err
	}
	s.tree.Update(stored.ID, stored.VV)
	s.bump(func(st *SpaceStats) { st.Puts++ })

	if s.acl != nil {
		s.acl.GrantPrincipal(actor, access.OpRead, resource(obj.ID))
		s.acl.GrantPrincipal(actor, access.OpWrite, resource(obj.ID))
		s.acl.GrantPrincipal(actor, access.OpShare, resource(obj.ID))
	}
	// Subscribers and caller get a clone each: the stored row is shared,
	// and a callback mutating ev.Object must not corrupt the caller's copy.
	s.notify(Event{Kind: "put", Object: stored.clone(), Actor: actor, At: now})
	return stored.clone(), nil
}

// Get reads an object, enforcing OpRead.
func (s *Space) Get(actor, objID string) (*Object, error) {
	if !s.can(actor, access.OpRead, objID) {
		s.deny()
		return nil, fmt.Errorf("%w: %s read %s", ErrDenied, actor, objID)
	}
	obj, ok := s.store.Get(objID)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownObject, objID)
	}
	s.bump(func(st *SpaceStats) { st.Reads++ })
	return obj, nil
}

// GetAs reads an object converted into the requested schema — the
// cross-application sharing primitive.
func (s *Space) GetAs(actor, objID, schemaName string) (*Object, error) {
	obj, err := s.Get(actor, objID)
	if err != nil {
		return nil, err
	}
	if strings.EqualFold(obj.Schema, schemaName) {
		return obj, nil
	}
	fields, err := s.registry.Convert(obj.Fields, obj.Schema, schemaName)
	if err != nil {
		return nil, err
	}
	out := obj.clone()
	out.Schema = strings.ToLower(schemaName)
	out.Fields = fields
	return out, nil
}

// Update modifies fields with optimistic concurrency: expectedVersion must
// match or ErrConflict returns. Enforces OpWrite. The write lands on this
// replica only; replication propagates it asynchronously.
func (s *Space) Update(actor, objID string, expectedVersion uint64, fields map[string]string) (*Object, error) {
	if !s.can(actor, access.OpWrite, objID) {
		s.deny()
		return nil, fmt.Errorf("%w: %s write %s", ErrDenied, actor, objID)
	}
	updated, err := s.store.Exec(objID, func(obj *Object) (*Object, error) {
		if obj == nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownObject, objID)
		}
		if obj.Version != expectedVersion {
			return nil, fmt.Errorf("%w: object at v%d, expected v%d", ErrConflict, obj.Version, expectedVersion)
		}
		schema, err := s.registry.Schema(obj.Schema)
		if err != nil {
			return nil, err
		}
		merged := cloneFields(obj.Fields)
		for k, v := range fields {
			if v == "" {
				delete(merged, k)
				continue
			}
			merged[k] = v
		}
		if err := schema.Validate(merged); err != nil {
			return nil, err
		}
		next := *obj
		next.Fields = merged
		next.VV = obj.VV.Clone().Tick(s.site)
		next.Version = next.VV.Sum()
		next.Site = s.site
		next.Updated = s.clock.Now()
		return &next, nil
	})
	if err != nil {
		return nil, err
	}
	s.tree.Update(updated.ID, updated.VV)
	s.bump(func(st *SpaceStats) { st.Updates++ })
	s.notify(Event{Kind: "update", Object: updated.clone(), Actor: actor, At: updated.Updated})
	return updated.clone(), nil
}

// Share grants another principal read access (and optionally write),
// enforcing OpShare on the actor. With replicas sharing one ACL system,
// a grant made at any site is effective at every site.
func (s *Space) Share(actor, objID, grantee string, writable bool) error {
	if !s.can(actor, access.OpShare, objID) {
		s.deny()
		return fmt.Errorf("%w: %s share %s", ErrDenied, actor, objID)
	}
	snapshot, ok := s.store.Get(objID)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, objID)
	}
	if s.acl != nil {
		s.acl.GrantPrincipal(grantee, access.OpRead, resource(objID))
		if writable {
			s.acl.GrantPrincipal(grantee, access.OpWrite, resource(objID))
		}
	}
	s.notify(Event{Kind: "share", Object: snapshot, Actor: actor, At: s.clock.Now()})
	return nil
}

// Relate records a typed relationship; composition and dependency must stay
// acyclic.
func (s *Space) Relate(from string, kind RelKind, to string) error {
	return s.store.Relate(from, kind, to)
}

// Related returns directly related object ids.
func (s *Space) Related(from string, kind RelKind) []string {
	return s.store.Related(from, kind)
}

// Dependents returns ids of objects that relate TO the given id over kind
// (e.g. everything that depends-on it).
func (s *Space) Dependents(to string, kind RelKind) []string {
	return s.store.Dependents(to, kind)
}

// Closure returns all objects transitively reachable from id over kind.
func (s *Space) Closure(from string, kind RelKind) []string {
	return s.store.Closure(from, kind)
}

// Query returns copies of objects of the given schema whose fields contain
// all the given key/value pairs (empty filter = all of that schema).
func (s *Space) Query(actor, schemaName string, filter map[string]string) ([]*Object, error) {
	candidates := s.store.Snapshot(func(obj *Object) bool {
		if !strings.EqualFold(obj.Schema, schemaName) {
			return false
		}
		for k, v := range filter {
			if obj.Fields[k] != v {
				return false
			}
		}
		return true
	})
	out := candidates[:0]
	for _, obj := range candidates {
		if s.can(actor, access.OpRead, obj.ID) {
			out = append(out, obj)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Drop evicts the row for id from THIS replica only — the placement
// migration path: a site no longer placed for an object's space pushes
// the row to a placed site and drops its local copy. It bypasses the ACL
// (the caller is the replication layer, not a principal) and publishes an
// "evict" event; other replicas are untouched. Returns the removed row,
// or nil when the id was not stored.
func (s *Space) Drop(id string) (*Object, error) {
	removed, err := s.store.Remove(id)
	if err != nil || removed == nil {
		return nil, err
	}
	s.tree.Remove(id)
	s.bump(func(st *SpaceStats) { st.Evictions++ })
	s.notify(Event{Kind: "evict", Object: removed, Actor: "placement/" + s.site, At: s.clock.Now()})
	return removed, nil
}

// DropCovered evicts the row only if its current state is covered by vv
// — the version vector a migration push carried. A write that landed
// after the push snapshot leaves the row in place (returning nil), so
// eviction can never destroy state no other replica has seen; the next
// migration pass picks the row up again. The check and the removal are
// two store operations: mutations of one replica are serialised by the
// simulation's event loop, so no writer can slip between them.
func (s *Space) DropCovered(id string, vv vclock.Version) (*Object, error) {
	cur, ok := s.store.Peek(id)
	if !ok {
		return nil, nil
	}
	if !vv.Dominates(cur.VV) {
		return nil, nil
	}
	return s.Drop(id)
}

// Subscribe registers fn for events on objects of the schema ("" = all).
// Callbacks run synchronously on the mutating goroutine.
func (s *Space) Subscribe(schemaName string, fn func(Event)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs = append(s.subs, subscription{schema: strings.ToLower(schemaName), fn: fn})
}

// Len returns the number of stored objects.
func (s *Space) Len() int { return s.store.Len() }

// --- replication ---------------------------------------------------------

// Digest summarises every object's version vector: equal digests mean
// equal replicas.
func (s *Space) Digest() map[string]vclock.Version { return s.store.Digest() }

// Tree returns the replica's incremental Merkle digest summary, kept in
// lockstep with every commit. The sync layer compares roots instead of
// shipping the full digest and descends only mismatched subtrees.
func (s *Space) Tree() *DigestTree { return s.tree }

// Range streams the stored rows through fn (see Backend.Range for the
// aliasing contract) — the replication layer's bulk scan that avoids
// materialising a copy of every row.
func (s *Space) Range(fn func(*Object) bool) { s.store.Range(fn) }

// Fetch reads a row without access control — the replication layer's
// read, symmetric to Range/Digest which also bypass the ACL:
// authorisation happened where the read request is served, not here.
// The row is borrowed (Backend.Peek): read-only, never changed later.
func (s *Space) Fetch(id string) (*Object, bool) { return s.store.Peek(id) }

// lwwWins reports whether a beats b under site-ordered last-writer-wins:
// the later Updated timestamp wins; equal timestamps fall back to the
// higher site name. Both inputs replicate byte-identically, so every
// replica picks the same winner.
func lwwWins(a, b *Object) bool {
	if !a.Updated.Equal(b.Updated) {
		return a.Updated.After(b.Updated)
	}
	return a.Site > b.Site
}

// Adopt merges a row received from a peer replica into this replica and
// takes ownership of it: the caller must not touch row afterwards (it may
// become the stored row). It is the replication layer's entry point and
// bypasses the ACL — authorisation happened where the write was issued,
// and the ACL system is shared across replicas anyway.
//
//   - unknown object: adopted as-is
//   - remote causally newer (VV dominates): remote state adopted
//   - remote causally older or equal: no change
//   - concurrent: deterministic site-ordered last-writer-wins; version
//     vectors merge either way and a "conflict" event is published
//
// changed reports whether local state moved; conflict whether a
// concurrent update was resolved.
func (s *Space) Adopt(row *Object) (changed, conflict bool, err error) {
	if row == nil || row.ID == "" {
		return false, false, fmt.Errorf("%w: empty remote object", ErrUnknownObject)
	}
	var conflictInfo *Conflict
	stored, err := s.store.Exec(row.ID, func(cur *Object) (*Object, error) {
		if cur == nil {
			return row, nil
		}
		switch cur.VV.Compare(row.VV) {
		case vclock.After, vclock.Equal:
			return nil, nil // nothing the remote knows that we don't
		case vclock.Before:
			if cur.Created.Before(row.Created) {
				row.Created = cur.Created
			}
			return row, nil
		default: // concurrent: resolve deterministically, merge histories
			winner, loser := cur, row
			if lwwWins(row, cur) {
				winner, loser = row, cur
			}
			merged := *winner // shares the winner's Fields: rows are immutable
			merged.VV = cur.VV.Merge(row.VV)
			merged.Version = merged.VV.Sum()
			// Created converges to the minimum over BOTH sides, independent
			// of who won — an asymmetric rule would leave replicas with
			// equal vectors but diverged timestamps, which no further sync
			// round could ever repair.
			if cur.Created.Before(merged.Created) {
				merged.Created = cur.Created
			}
			if row.Created.Before(merged.Created) {
				merged.Created = row.Created
			}
			conflictInfo = &Conflict{
				ObjectID:    cur.ID,
				WinnerSite:  winner.Site,
				LoserSite:   loser.Site,
				LoserFields: cloneFields(loser.Fields),
			}
			return &merged, nil
		}
	})
	if err != nil {
		return false, false, err
	}
	if stored == nil {
		return false, false, nil
	}
	s.tree.Update(stored.ID, stored.VV)
	if conflictInfo != nil {
		s.bump(func(st *SpaceStats) { st.Applied++; st.Conflicts++ })
		s.notify(Event{
			Kind: "conflict", Object: stored, Actor: "replica/" + row.Site,
			At: s.clock.Now(), Conflict: conflictInfo,
		})
		return true, true, nil
	}
	s.bump(func(st *SpaceStats) { st.Applied++ })
	s.notify(Event{Kind: "apply", Object: stored, Actor: "replica/" + row.Site, At: s.clock.Now()})
	return true, false, nil
}

// ApplyRemote is Adopt of a copy: the caller keeps remote and may change
// or re-send it.
func (s *Space) ApplyRemote(remote *Object) (changed, conflict bool, err error) {
	return s.Adopt(remote.clone())
}

// --- internals -----------------------------------------------------------

func (s *Space) notify(ev Event) {
	// No copy: subs is append-only, so a header read under the lock stays valid.
	s.mu.RLock()
	subs := s.subs
	s.mu.RUnlock()
	for _, sub := range subs {
		if sub.schema == "" || (ev.Object != nil && sub.schema == ev.Object.Schema) {
			s.bump(func(st *SpaceStats) { st.Notifies++ })
			sub.fn(ev)
		}
	}
}

func (s *Space) deny() {
	s.bump(func(st *SpaceStats) { st.Denials++ })
}

func (s *Space) bump(fn func(*SpaceStats)) {
	s.mu.Lock()
	fn(&s.stats)
	s.mu.Unlock()
}
