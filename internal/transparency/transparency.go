// Package transparency implements §4's "Support for Transparency" and the
// §6.1 demand that selection be user-level: "with CSCW systems selection
// mechanisms shouldn't be provided only for application designers and
// developers. The user centred view of CSCW systems means that the user
// should be allowed to select their required transparency."
//
// A Selector holds a per-principal odp.Mask that users change at runtime.
// The four CSCW transparency mechanisms consult it:
//
//   - organisation: hide inter-organisational boundaries and policies
//   - time: make interaction independent of synchronous/asynchronous mode
//   - view: hide per-user presentation state (WYSIWIS apps opt out)
//   - activity: hide objects and events of unrelated activities
//
// In the viewpoint map (ARCHITECTURE.md) this is the computational
// viewpoint's selection mechanism: transparencies the user leaves
// selected are provided by engineering machinery (replication by
// internal/replica, persistence by information/logstore, bindings by
// internal/channel); deselecting one surfaces that machinery — e.g.
// FilterReplica annotates reads with the serving replica, writing site
// and version vector.
package transparency

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"mocca/internal/odp"
	"mocca/internal/org"
)

// Selector stores transparency selections per principal, with a default
// mask for principals who never tailored theirs.
type Selector struct {
	mu       sync.RWMutex
	defaults odp.Mask
	per      map[string]odp.Mask
}

// NewSelector creates a selector whose default mask provides every CSCW
// transparency (the "it just works" posture) plus replication and
// location transparency — replicated state looks like one space and a
// trader-resolved remote read looks like a local one; users deselect
// what they want to see.
func NewSelector() *Selector {
	return &Selector{
		defaults: odp.MaskOf(odp.Organisation, odp.Time, odp.View, odp.Activity, odp.Replication, odp.Location),
		per:      make(map[string]odp.Mask),
	}
}

// SetDefault replaces the default mask.
func (s *Selector) SetDefault(m odp.Mask) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.defaults = m
}

// For returns the effective mask for a principal.
func (s *Selector) For(principal string) odp.Mask {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if m, ok := s.per[principal]; ok {
		return m
	}
	return s.defaults
}

// Set replaces a principal's mask — the user-level tailoring call.
func (s *Selector) Set(principal string, m odp.Mask) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.per[principal] = m
}

// Enable turns one transparency on for a principal.
func (s *Selector) Enable(principal string, t odp.Transparency) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.per[principal]
	if !ok {
		cur = s.defaults
	}
	s.per[principal] = cur.With(t)
}

// Disable turns one transparency off for a principal.
func (s *Selector) Disable(principal string, t odp.Transparency) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.per[principal]
	if !ok {
		cur = s.defaults
	}
	s.per[principal] = cur.Without(t)
}

// Errors of the transparency mechanisms.
var (
	ErrRecipientOffline = errors.New("transparency: recipient offline and time transparency not selected")
	ErrOrgBoundary      = errors.New("transparency: inter-organisational interaction blocked")
)

// --- Organisation transparency -----------------------------------------

// OrgView is what a principal sees of a resource across an organisational
// boundary.
type OrgView struct {
	Visible bool
	// Annotation explains the boundary when organisation transparency is
	// OFF (the user asked to see organisational structure).
	Annotation string
}

// ResolveOrg applies organisation transparency: with it selected,
// compatible organisations look like one seamless space; without it, the
// boundary is surfaced to the user. Incompatible policies block interaction
// either way — transparency hides structure, not policy.
func ResolveOrg(sel *Selector, kb *org.KnowledgeBase, principal, principalOrg, resourceOrg string) (OrgView, error) {
	if principalOrg == resourceOrg || resourceOrg == "" {
		return OrgView{Visible: true}, nil
	}
	if !kb.Compatible(principalOrg, resourceOrg) {
		return OrgView{}, fmt.Errorf("%w: %s and %s have incompatible policies", ErrOrgBoundary, principalOrg, resourceOrg)
	}
	if sel.For(principal).Has(odp.Organisation) {
		return OrgView{Visible: true}, nil
	}
	return OrgView{
		Visible:    true,
		Annotation: fmt.Sprintf("crossing organisational boundary %s -> %s", principalOrg, resourceOrg),
	}, nil
}

// --- Time transparency ---------------------------------------------------

// Presence reports whether a user is reachable synchronously right now.
type Presence func(user string) bool

// SyncDeliver delivers a payload synchronously (e.g. into a live session).
type SyncDeliver func(user string, payload any) error

// AsyncDeliver queues a payload for later (e.g. via the MHS).
type AsyncDeliver func(user string, payload any) error

// Mode records which path a routed delivery took.
type Mode string

// Delivery modes.
const (
	ModeSync  Mode = "sync"
	ModeAsync Mode = "async"
)

// TimeRouter realises temporal transparency: "interaction will be
// independent of the mode we are using". Online recipients get synchronous
// delivery; offline recipients get store-and-forward — but only when the
// SENDER selected time transparency. Without it, reaching an offline user
// is an error the sender must handle (the mode is in their face).
type TimeRouter struct {
	Selector *Selector
	Presence Presence
	Sync     SyncDeliver
	Async    AsyncDeliver
}

// Route delivers payload from sender to recipient per the rules above.
func (r *TimeRouter) Route(sender, recipient string, payload any) (Mode, error) {
	if r.Presence != nil && r.Presence(recipient) {
		if err := r.Sync(recipient, payload); err == nil {
			return ModeSync, nil
		}
		// Fall through: a failed live delivery degrades to async when
		// permitted, mirroring a conference drop mid-session.
	}
	if !r.Selector.For(sender).Has(odp.Time) {
		return "", fmt.Errorf("%w: %s", ErrRecipientOffline, recipient)
	}
	if err := r.Async(recipient, payload); err != nil {
		return "", err
	}
	return ModeAsync, nil
}

// --- View transparency ---------------------------------------------------

// ViewPrefix marks fields that carry per-user presentation state.
const ViewPrefix = "view:"

// FilterView applies view transparency to shared fields: with the
// transparency selected, per-user view fields are hidden ("applications can
// be interested or not in the way users view data"); WYSIWIS applications
// disable it and see everything.
func FilterView(sel *Selector, principal string, fields map[string]string) map[string]string {
	out := make(map[string]string, len(fields))
	hide := sel.For(principal).Has(odp.View)
	for k, v := range fields {
		if hide && strings.HasPrefix(k, ViewPrefix) {
			continue
		}
		out[k] = v
	}
	return out
}

// --- Replication transparency ---------------------------------------------

// ReplicaMeta describes the replica that served a read of replicated
// state: which site's replica answered, which site last wrote the object,
// and the object's version vector at the serving replica.
type ReplicaMeta struct {
	// Site is the replica that served the read.
	Site string
	// Writer is the site whose write produced the current state.
	Writer string
	// Version is the serving replica's version vector for the object, in
	// vclock.Version.String() form — comparing it across replicas is how
	// replica lag becomes visible.
	Version string
}

// Replica-annotation field keys. They carry the ViewPrefix so that view
// transparency composes: a principal who selected view transparency but
// not replication transparency still sees clean fields.
const (
	ReplicaSiteField    = ViewPrefix + "replica:site"
	ReplicaWriterField  = ViewPrefix + "replica:writer"
	ReplicaVersionField = ViewPrefix + "replica:version"
)

// FilterReplica applies replication transparency to a read of replicated
// state. With the transparency selected the replica set looks like one
// information space — the fields pass through untouched. Without it, the
// reader asked to see the distribution: the returned copy is annotated
// with which replica served the read, who wrote the state, and the
// version vector, so replica lag is in the user's face.
func FilterReplica(sel *Selector, principal string, meta ReplicaMeta, fields map[string]string) map[string]string {
	if sel.For(principal).Has(odp.Replication) {
		return fields
	}
	out := make(map[string]string, len(fields)+3)
	for k, v := range fields {
		out[k] = v
	}
	out[ReplicaSiteField] = meta.Site
	out[ReplicaWriterField] = meta.Writer
	out[ReplicaVersionField] = meta.Version
	return out
}

// --- Activity transparency -----------------------------------------------

// ActivityFilter decides whether an event belonging to eventActivity should
// reach a principal participating in memberOf. With activity transparency
// selected, unrelated activities are invisible ("this helps activities not
// to be disturbed by other unrelated activities"); without it, the
// principal sees everything (e.g. an administrator monitoring the
// environment).
func ActivityFilter(sel *Selector, principal string, memberOf []string, eventActivity string) bool {
	if !sel.For(principal).Has(odp.Activity) {
		return true
	}
	if eventActivity == "" {
		return true // environment-wide events always pass
	}
	for _, a := range memberOf {
		if a == eventActivity {
			return true
		}
	}
	return false
}
