// Package odp models the vocabulary of the ISO Basic Reference Model of
// Open Distributed Processing that the paper's §6 builds on: the five
// viewpoints, distribution transparencies, and binding descriptors between
// computational objects.
//
// The package is deliberately descriptive — it gives the CSCW environment
// (internal/core) the terms in which it declares WHERE a requirement sits
// (enterprise vs information vs computation) and WHICH transparencies a
// binding provides, so that the claims of §6.1 ("for CSCW applications
// [the design] starts from the enterprise or information viewpoint") are
// expressed in code rather than prose.
package odp

import (
	"errors"
	"fmt"
	"sort"
)

// Viewpoint is one of the five ODP viewpoints.
type Viewpoint int

// The five viewpoints of the Basic Reference Model.
const (
	Enterprise Viewpoint = iota + 1
	Information
	Computation
	Engineering
	Technology
)

var viewpointNames = map[Viewpoint]string{
	Enterprise:  "enterprise",
	Information: "information",
	Computation: "computation",
	Engineering: "engineering",
	Technology:  "technology",
}

// String implements fmt.Stringer.
func (v Viewpoint) String() string {
	if s, ok := viewpointNames[v]; ok {
		return s
	}
	return fmt.Sprintf("viewpoint(%d)", int(v))
}

// Transparency is a distribution transparency of the computational
// viewpoint. The paper (§4, §6.1) extends the ODP set with CSCW-specific
// transparencies (organisation, time, view, activity) — both families share
// this type so a single selection mask covers them.
type Transparency int

// ODP distribution transparencies.
const (
	Access Transparency = iota + 1
	Location
	Migration
	Replication
	Failure
	Concurrency
	// CSCW transparencies introduced by the paper (§4).
	Organisation
	Time
	View
	Activity
)

// Mask is a selectable set of transparencies. The paper's core demand on
// ODP is that this selection be available to USERS, not only designers
// ("the user should be allowed to select their required transparency");
// internal/transparency attaches a Mask to each principal.
type Mask uint32

// MaskOf builds a mask from transparencies.
func MaskOf(ts ...Transparency) Mask {
	var m Mask
	for _, t := range ts {
		m |= 1 << uint(t)
	}
	return m
}

// Has reports whether the mask selects t.
func (m Mask) Has(t Transparency) bool { return m&(1<<uint(t)) != 0 }

// Without returns the mask with t deselected.
func (m Mask) Without(t Transparency) Mask { return m &^ (1 << uint(t)) }

// List returns the selected transparencies in declaration order.
func (m Mask) List() []Transparency {
	var out []Transparency
	for t := Access; t <= Activity; t++ {
		if m.Has(t) {
			out = append(out, t)
		}
	}
	return out
}

// Binding describes an established channel between two computational
// objects and the transparencies the infrastructure provides on it.
type Binding struct {
	Client   string
	Server   string
	Provides Mask
}

// Satisfies reports whether the binding provides every transparency in
// required.
func (b Binding) Satisfies(required Mask) bool {
	return b.Provides&required == required
}

// Missing lists transparencies in required that the binding lacks.
func (b Binding) Missing(required Mask) []Transparency {
	var out []Transparency
	for _, t := range required.List() {
		if !b.Provides.Has(t) {
			out = append(out, t)
		}
	}
	return out
}

// Requirement records that some environment function addresses a concern at
// a given viewpoint — the machine-readable form of the paper's §6 mapping.
type Requirement struct {
	Name      string
	Viewpoint Viewpoint
	// Function names the environment service that realises it.
	Function string
}

// ErrDuplicateRequirement reports a name collision in a Registry.
var ErrDuplicateRequirement = errors.New("odp: duplicate requirement")

// Registry catalogues requirements by viewpoint; the environment publishes
// its §6 conformance table from one of these.
type Registry struct {
	byName map[string]Requirement
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Requirement)}
}

// Add records a requirement.
func (r *Registry) Add(req Requirement) error {
	if _, ok := r.byName[req.Name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateRequirement, req.Name)
	}
	r.byName[req.Name] = req
	return nil
}

// All returns every requirement, sorted by (viewpoint, name).
func (r *Registry) All() []Requirement {
	out := make([]Requirement, 0, len(r.byName))
	for _, req := range r.byName {
		out = append(out, req)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Viewpoint != out[j].Viewpoint {
			return out[i].Viewpoint < out[j].Viewpoint
		}
		return out[i].Name < out[j].Name
	})
	return out
}
