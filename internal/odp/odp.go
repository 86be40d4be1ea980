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
	"strings"
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

// ParseViewpoint parses a viewpoint name.
func ParseViewpoint(s string) (Viewpoint, error) {
	for v, name := range viewpointNames {
		if strings.EqualFold(s, name) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("odp: unknown viewpoint %q", s)
}

// Viewpoints lists all five in canonical order.
func Viewpoints() []Viewpoint {
	return []Viewpoint{Enterprise, Information, Computation, Engineering, Technology}
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

var transparencyNames = map[Transparency]string{
	Access:       "access",
	Location:     "location",
	Migration:    "migration",
	Replication:  "replication",
	Failure:      "failure",
	Concurrency:  "concurrency",
	Organisation: "organisation",
	Time:         "time",
	View:         "view",
	Activity:     "activity",
}

// String implements fmt.Stringer.
func (t Transparency) String() string {
	if s, ok := transparencyNames[t]; ok {
		return s
	}
	return fmt.Sprintf("transparency(%d)", int(t))
}

// ODPTransparencies returns the classic ODP set.
func ODPTransparencies() []Transparency {
	return []Transparency{Access, Location, Migration, Replication, Failure, Concurrency}
}

// CSCWTransparencies returns the paper's extension set.
func CSCWTransparencies() []Transparency {
	return []Transparency{Organisation, Time, View, Activity}
}

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

// With returns the mask with t selected.
func (m Mask) With(t Transparency) Mask { return m | 1<<uint(t) }

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

// String renders e.g. "access+time+view".
func (m Mask) String() string {
	ts := m.List()
	if len(ts) == 0 {
		return "none"
	}
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.String()
	}
	return strings.Join(names, "+")
}

// InteractionKind is an ODP computational interaction.
type InteractionKind int

// The two computational interaction kinds.
const (
	// Interrogation is request/reply.
	Interrogation InteractionKind = iota + 1
	// Announcement is one-way.
	Announcement
)

// String implements fmt.Stringer.
func (k InteractionKind) String() string {
	switch k {
	case Interrogation:
		return "interrogation"
	case Announcement:
		return "announcement"
	default:
		return fmt.Sprintf("interaction(%d)", int(k))
	}
}

// Binding describes an established channel between two computational
// objects and the transparencies the infrastructure provides on it.
type Binding struct {
	ID       string
	Client   string
	Server   string
	Kind     InteractionKind
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

// ByViewpoint returns requirements at the given viewpoint, sorted by name.
func (r *Registry) ByViewpoint(v Viewpoint) []Requirement {
	var out []Requirement
	for _, req := range r.byName {
		if req.Viewpoint == v {
			out = append(out, req)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
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
