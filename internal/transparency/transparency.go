// Package transparency implements §4's "Support for Transparency" and the
// §6.1 demand that selection be user-level: "with CSCW systems selection
// mechanisms shouldn't be provided only for application designers and
// developers. The user centred view of CSCW systems means that the user
// should be allowed to select their required transparency."
//
// A Selector holds a per-principal odp.Mask that users change at runtime.
// Two mechanisms consult it:
//
//   - organisation: hide inter-organisational boundaries (ResolveOrg)
//   - time: make interaction independent of synchronous/asynchronous mode
//     (TimeRouter)
//
// In the viewpoint map (ARCHITECTURE.md) this is the computational
// viewpoint's selection mechanism: transparencies the user leaves
// selected are provided by engineering machinery (replication by
// internal/replica, persistence by information/logstore, bindings by
// internal/channel), and an odp.Binding reads a principal's mask to say
// which of them a binding satisfies.
package transparency

import (
	"errors"
	"fmt"
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
