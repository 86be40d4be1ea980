// Package org implements the paper's Organisational Model: "the aim of the
// organisational model is to make explicit the sharing of organisational
// resources, policies and regulations. The model is constructed from a set
// of organisational objects (e.g. resources, projects, people, roles),
// organisational relations and rules."
//
// Rules take the form of per-organisation policies here: Compatible
// decides whether two organisations may interact.
//
// The central artefact is the KnowledgeBase — the "organisational knowledge
// base" that §6.1 proposes to associate with the ODP trader ("containing or
// dictating among other the trading policy"). The bridge in this package
// derives a trader admission policy from inter-organisational policy
// compatibility, and exports the knowledge base into the X.500 directory.
package org

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"mocca/internal/directory"
)

// Kind classifies organisational objects, per the paper's enumeration.
type Kind string

// Organisational object kinds.
const (
	KindPerson   Kind = "person"
	KindRole     Kind = "role"
	KindResource Kind = "resource"
	KindProject  Kind = "project"
	KindUnit     Kind = "unit"         // organisational unit
	KindOrg      Kind = "organisation" // a whole enterprise
)

// Object is an organisational object.
type Object struct {
	ID    string
	Kind  Kind
	Name  string
	Org   string // owning organisation id ("" for the org object itself)
	Attrs directory.Attributes
}

// clone deep-copies the object.
func (o *Object) clone() *Object {
	out := *o
	if o.Attrs != nil {
		out.Attrs = o.Attrs.Clone()
	}
	return &out
}

// RelationKind names an organisational relation.
type RelationKind string

// Standard relations. Applications may add their own kinds freely.
const (
	RelMemberOf       RelationKind = "member-of"       // person -> unit/project/org
	RelReportsTo      RelationKind = "reports-to"      // person -> person
	RelFills          RelationKind = "fills"           // person -> role
	RelResponsibleFor RelationKind = "responsible-for" // role -> project/resource
	RelAllocatedTo    RelationKind = "allocated-to"    // resource -> project
	RelPartOf         RelationKind = "part-of"         // unit -> unit/org
)

// Relation is a directed, typed edge between two organisational objects.
type Relation struct {
	From string
	Kind RelationKind
	To   string
}

// Errors returned by the knowledge base.
var (
	ErrObjectExists = errors.New("org: object already exists")
	ErrBadRelation  = errors.New("org: relation endpoint missing")
)

// KnowledgeBase stores organisational objects, relations and per-
// organisation policies. Safe for concurrent use.
type KnowledgeBase struct {
	mu        sync.RWMutex
	objects   map[string]*Object
	relations []Relation
	outIndex  map[string][]int // object id -> relation indices (as From)
	policies  map[string]map[string]string
}

// NewKnowledgeBase creates an empty knowledge base.
func NewKnowledgeBase() *KnowledgeBase {
	return &KnowledgeBase{
		objects:  make(map[string]*Object),
		outIndex: make(map[string][]int),
		policies: make(map[string]map[string]string),
	}
}

// AddObject inserts an organisational object.
func (kb *KnowledgeBase) AddObject(o Object) error {
	if o.ID == "" {
		return fmt.Errorf("org: object needs an id")
	}
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if _, ok := kb.objects[o.ID]; ok {
		return fmt.Errorf("%w: %q", ErrObjectExists, o.ID)
	}
	if o.Attrs == nil {
		o.Attrs = make(directory.Attributes)
	}
	kb.objects[o.ID] = o.clone()
	return nil
}

// Relate adds a typed relation; both endpoints must exist.
func (kb *KnowledgeBase) Relate(from string, kind RelationKind, to string) error {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if _, ok := kb.objects[from]; !ok {
		return fmt.Errorf("%w: from %q", ErrBadRelation, from)
	}
	if _, ok := kb.objects[to]; !ok {
		return fmt.Errorf("%w: to %q", ErrBadRelation, to)
	}
	for _, r := range kb.relations {
		if r.From == from && r.Kind == kind && r.To == to {
			return nil // idempotent
		}
	}
	kb.relations = append(kb.relations, Relation{From: from, Kind: kind, To: to})
	idx := len(kb.relations) - 1
	kb.outIndex[from] = append(kb.outIndex[from], idx)
	return nil
}

// Related returns ids of objects reachable from id over one hop of kind.
func (kb *KnowledgeBase) Related(id string, kind RelationKind) []string {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	var out []string
	for _, idx := range kb.outIndex[id] {
		r := kb.relations[idx]
		if r.Kind == kind {
			out = append(out, r.To)
		}
	}
	sort.Strings(out)
	return out
}

// ObjectsByKind returns copies of all objects of the kind, sorted by id.
func (kb *KnowledgeBase) ObjectsByKind(kind Kind) []*Object {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	var out []*Object
	for _, o := range kb.objects {
		if o.Kind == kind {
			out = append(out, o.clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of objects.
func (kb *KnowledgeBase) Len() int {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return len(kb.objects)
}

// SetPolicy records a policy attribute of an organisation, e.g.
// ("gmd", "data-sharing", "open").
func (kb *KnowledgeBase) SetPolicy(orgID, key, value string) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if kb.policies[orgID] == nil {
		kb.policies[orgID] = make(map[string]string)
	}
	kb.policies[orgID][strings.ToLower(key)] = strings.ToLower(value)
}

// Compatible decides inter-organisational policy compatibility: two
// organisations interact when no policy key both declare has conflicting
// values. This realises the paper's "sometimes, interaction is not
// possible due to incompatible policies".
func (kb *KnowledgeBase) Compatible(orgA, orgB string) bool {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	a, b := kb.policies[orgA], kb.policies[orgB]
	for k, va := range a {
		if vb, ok := b[k]; ok && va != vb {
			return false
		}
	}
	return true
}

// OrgOf returns the organisation an object belongs to: its Org field, or
// the object itself when it is an organisation.
func (kb *KnowledgeBase) OrgOf(id string) string {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	o, ok := kb.objects[id]
	if !ok {
		return ""
	}
	if o.Kind == KindOrg {
		return o.ID
	}
	return o.Org
}

// RolesFilledBy returns the role ids the person fills.
func (kb *KnowledgeBase) RolesFilledBy(person string) []string {
	return kb.Related(person, RelFills)
}
