// Package core implements the CSCW Environment of figures 3 and 4: the
// layer "located between the basic ODP environment and CSCW applications"
// that "augments ODP with CSCW specific functions and requirements".
//
// An Environment instance wires the five MOCCA models (org, activity,
// information, comm, expertise) over the substrates (directory, trader,
// mhs, rtc) and exposes them as common services. Applications register with
// the environment (figure 3) instead of integrating pairwise with each
// other (figure 2); each registration contributes the application's native
// schema and its converters to/from shared representations, after which
// every registered application can exchange information objects with every
// other.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mocca/internal/access"
	"mocca/internal/activity"
	"mocca/internal/comm"
	"mocca/internal/directory"
	"mocca/internal/expertise"
	"mocca/internal/id"
	"mocca/internal/information"
	"mocca/internal/odp"
	"mocca/internal/org"
	"mocca/internal/policy"
	"mocca/internal/trader"
	"mocca/internal/transparency"
	"mocca/internal/vclock"
)

// Errors of the environment.
var (
	ErrAppExists  = errors.New("core: application already registered")
	ErrUnknownApp = errors.New("core: unknown application")
)

// Application describes a registering CSCW application (figure 3).
type Application struct {
	// Name identifies the application, e.g. "desktop-conference".
	Name string
	// Quadrant places it in the figure-1 time-space matrix, e.g.
	// "same-time/different-place". Informational.
	Quadrant string
	// Schema is the application's native information schema.
	Schema information.Schema
	// ToShared/FromShared convert between the native schema and the
	// environment's shared interchange schema. Optional for applications
	// that use the interchange schema natively.
	ToShared   func(map[string]string) (map[string]string, error)
	FromShared func(map[string]string) (map[string]string, error)
}

// SharedSchemaName is the environment's interchange representation.
const SharedSchemaName = "mocca-interchange"

// Environment is the open CSCW environment.
type Environment struct {
	clock vclock.Clock
	ids   *id.Generator

	// The five MOCCA models plus supporting services.
	orgKB      *org.KnowledgeBase
	activities *activity.Registry
	space      *information.Space
	hub        *comm.Hub
	expertise  *expertise.Model
	acl        *access.System
	engine     *policy.Engine
	selector   *transparency.Selector
	trading    *trader.Trader
	dit        *directory.DIT
	conform    *odp.Registry

	mu       sync.RWMutex
	apps     map[string]*Application
	siteEnvs map[string]*SiteEnv
}

// Option configures an Environment.
type Option func(*Environment)

// WithIDs sets the id generator used across services.
func WithIDs(g *id.Generator) Option {
	return func(e *Environment) { e.ids = g }
}

// New creates an environment over the given clock, with all five models
// wired together:
//
//   - the org knowledge base dictates the trader's admission policy (§6.1)
//   - filled org roles become expertise responsibilities
//   - activity and information events feed the tailorability engine
//   - the transparency selector guards communication and sharing
func New(clock vclock.Clock, opts ...Option) *Environment {
	e := &Environment{
		clock:    clock,
		orgKB:    org.NewKnowledgeBase(),
		acl:      access.NewSystem(),
		engine:   policy.NewEngine(),
		dit:      directory.NewDIT(),
		conform:  odp.NewRegistry(),
		apps:     make(map[string]*Application),
		siteEnvs: make(map[string]*SiteEnv),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.ids == nil {
		e.ids = id.New()
	}
	e.trading = trader.New()
	e.selector = transparency.NewSelector()
	e.expertise = expertise.NewModel()
	e.activities = activity.NewRegistry(clock, activity.WithIDs(e.ids))

	registry := information.NewSchemaRegistry()
	if err := registry.Register(information.Schema{
		Name: SharedSchemaName,
		Fields: []information.Field{
			{Name: "title", Type: information.FieldText, Required: true},
			{Name: "body", Type: information.FieldText},
			{Name: "author", Type: information.FieldText},
			{Name: "context", Type: information.FieldText},
		},
	}); err != nil {
		panic(err) // static schema; cannot fail
	}
	e.space = information.NewSpace(registry, e.acl, clock, information.WithIDs(e.ids))
	e.hub = comm.NewHub(e.selector)

	// §6.1: the organisational knowledge base dictates the trading policy.
	e.trading.AddPolicy(org.TradingPolicy(e.orgKB))

	// Model events feed the tailorability engine.
	e.activities.Subscribe(func(ev activity.Event) {
		e.engine.Dispatch(policy.Event{Kind: "activity." + string(ev.Kind), Attrs: map[string]string{
			"activity": ev.Activity.ID,
			"name":     ev.Activity.Name,
			"actor":    ev.Actor,
			"detail":   ev.Detail,
			"state":    ev.Activity.State.String(),
		}})
	})
	e.space.Subscribe("", func(ev information.Event) { e.dispatchInfo("", ev) })

	e.publishConformance()
	return e
}

// publishConformance records the §6 requirement -> viewpoint -> function
// mapping in machine-readable form.
func (e *Environment) publishConformance() {
	reqs := []odp.Requirement{
		{Name: "organisational-modelling", Viewpoint: odp.Enterprise, Function: "org.KnowledgeBase"},
		{Name: "activity-support", Viewpoint: odp.Enterprise, Function: "activity.Registry"},
		{Name: "trading-policy-from-org-kb", Viewpoint: odp.Enterprise, Function: "org.TradingPolicy"},
		{Name: "information-sharing", Viewpoint: odp.Information, Function: "information.Space"},
		{Name: "standard-repositories", Viewpoint: odp.Information, Function: "directory.DIT"},
		{Name: "schema-interchange", Viewpoint: odp.Information, Function: "information.SchemaRegistry"},
		{Name: "replicated-information-spaces", Viewpoint: odp.Information, Function: "replica.Replicator"},
		{Name: "selective-transparency", Viewpoint: odp.Computation, Function: "transparency.Selector"},
		{Name: "replication-transparency", Viewpoint: odp.Computation, Function: "replica.Replicator"},
		{Name: "user-tailorability", Viewpoint: odp.Computation, Function: "policy.Engine"},
		{Name: "communication-integration", Viewpoint: odp.Computation, Function: "comm.Hub"},
		{Name: "invocation", Viewpoint: odp.Engineering, Function: "rpc.Endpoint"},
		{Name: "message-transfer", Viewpoint: odp.Engineering, Function: "mhs.MTA"},
		{Name: "conferencing", Viewpoint: odp.Engineering, Function: "rtc.Server"},
		{Name: "simulated-network", Viewpoint: odp.Technology, Function: "netsim.Network"},
	}
	for _, r := range reqs {
		if err := e.conform.Add(r); err != nil {
			panic(err) // static table; cannot fail
		}
	}
}

// Accessors for the common services (the environment's "common functions",
// with applications keeping "task-specific functions" to themselves).

// Org returns the organisational model.
func (e *Environment) Org() *org.KnowledgeBase { return e.orgKB }

// Activities returns the inter-activity model.
func (e *Environment) Activities() *activity.Registry { return e.activities }

// Space returns the information model.
func (e *Environment) Space() *information.Space { return e.space }

// Hub returns the communication model.
func (e *Environment) Hub() *comm.Hub { return e.hub }

// Expertise returns the user-expertise model.
func (e *Environment) Expertise() *expertise.Model { return e.expertise }

// Access returns the access control system.
func (e *Environment) Access() *access.System { return e.acl }

// Policies returns the tailorability engine.
func (e *Environment) Policies() *policy.Engine { return e.engine }

// Transparency returns the per-principal transparency selector.
func (e *Environment) Transparency() *transparency.Selector { return e.selector }

// Trader returns the trading function.
func (e *Environment) Trader() *trader.Trader { return e.trading }

// Directory returns the environment's X.500 DIT.
func (e *Environment) Directory() *directory.DIT { return e.dit }

// Conformance returns the ODP requirement registry (§6 mapping).
func (e *Environment) Conformance() *odp.Registry { return e.conform }

// RegisterApplication admits an application into the environment (figure
// 3): its schema joins the registry together with converters to/from the
// shared representation, after which it interoperates with every other
// registered application through the information model.
func (e *Environment) RegisterApplication(app Application) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.apps[app.Name]; ok {
		return fmt.Errorf("%w: %q", ErrAppExists, app.Name)
	}
	registry := e.space.Registry()
	if app.Schema.Name != "" && app.Schema.Name != SharedSchemaName {
		if err := registry.Register(app.Schema); err != nil {
			return fmt.Errorf("core: register %q: %w", app.Name, err)
		}
		if app.ToShared != nil {
			if err := registry.AddConverter(information.Converter{
				From: app.Schema.Name, To: SharedSchemaName, Fn: app.ToShared,
			}); err != nil {
				return err
			}
		}
		if app.FromShared != nil {
			if err := registry.AddConverter(information.Converter{
				From: SharedSchemaName, To: app.Schema.Name, Fn: app.FromShared,
			}); err != nil {
				return err
			}
		}
	}
	stored := app
	e.apps[app.Name] = &stored
	e.engine.Dispatch(policy.Event{Kind: "env.app-registered", Attrs: map[string]string{
		"app": app.Name, "quadrant": app.Quadrant,
	}})
	return nil
}

// Applications lists registered application names, sorted.
func (e *Environment) Applications() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.apps))
	for name := range e.apps {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Quadrants returns the set of figure-1 quadrants covered by registered
// applications — the environment hosting "a multiplicity of approaches".
func (e *Environment) Quadrants() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	set := map[string]bool{}
	for _, app := range e.apps {
		if app.Quadrant != "" {
			set[app.Quadrant] = true
		}
	}
	out := make([]string, 0, len(set))
	for q := range set {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// ShareAcross converts an information object authored by one application
// into another application's native schema — the figure-3 interop path.
// The reader principal must hold read access (share first).
func (e *Environment) ShareAcross(reader, objID, targetApp string) (*information.Object, error) {
	e.mu.RLock()
	app, ok := e.apps[targetApp]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownApp, targetApp)
	}
	schema := app.Schema.Name
	if schema == "" {
		schema = SharedSchemaName
	}
	return e.space.GetAs(reader, objID, schema)
}

// --- per-site environments ------------------------------------------------

// SiteEnv is the per-site face of the environment: one site's replica of
// the information model layered over the SAME schema registry, ACL
// system and policy engine as every other site. Writes land on the local
// replica and propagate asynchronously, while everything that must be
// globally consistent (schemas, grants, policies) stays shared.
type SiteEnv struct {
	parent *Environment
	space  *information.Space
}

// infoKinds names the policy event of each kind a Space emits, so that
// dispatching one builds no string.
var infoKinds = map[string]string{
	"put": "info.put", "update": "info.update", "share": "info.share",
	"conflict": "info.conflict", "apply": "info.apply",
}

// dispatchInfo feeds one information event of the named site's replica
// ("" = the environment's own space) to the policy engine. The attributes
// are built only when a rule could read them.
func (e *Environment) dispatchInfo(site string, ev information.Event) {
	kind, ok := infoKinds[ev.Kind]
	if !ok {
		kind = "info." + ev.Kind
	}
	pe := policy.Event{Kind: kind}
	if e.engine.HasRules() {
		pe.Attrs = map[string]string{"actor": ev.Actor, "kind": ev.Kind}
		if site != "" {
			pe.Attrs["site"] = site
		}
		if ev.Object != nil {
			pe.Attrs["object"] = ev.Object.ID
			pe.Attrs["schema"] = ev.Object.Schema
		}
		if ev.Conflict != nil {
			pe.Attrs["winner"] = ev.Conflict.WinnerSite
			pe.Attrs["loser"] = ev.Conflict.LoserSite
		}
	}
	e.engine.Dispatch(pe)
}

// ResetSiteSpace (re)builds the named site's information replica over the
// given backend (nil = in-memory) and feeds its events to the policy
// engine tagged with the site. On the crash/restart path the site's
// in-memory replica died with the site, and a durable backend arrives
// here freshly recovered from its log: the existing SiteEnv is kept
// (other sites hold references to it) and its space is swapped.
func (e *Environment) ResetSiteSpace(site string, backend information.Backend) *SiteEnv {
	e.mu.Lock()
	defer e.mu.Unlock()
	se, ok := e.siteEnvs[site]
	if !ok {
		se = &SiteEnv{parent: e}
		e.siteEnvs[site] = se
	}
	se.space = information.NewSpace(e.space.Registry(), e.acl, e.clock,
		information.WithIDs(e.ids), information.WithSite(site),
		information.WithBackend(backend))
	se.space.Subscribe("", func(ev information.Event) { e.dispatchInfo(site, ev) })
	return se
}

// Space returns the site's information replica. The read is guarded by
// the environment lock because ResetSiteSpace swaps the replica on the
// crash/restart path.
func (s *SiteEnv) Space() *information.Space {
	s.parent.mu.RLock()
	defer s.parent.mu.RUnlock()
	return s.space
}

// SyncOrgToDirectory exports the organisational knowledge base into the
// environment's X.500 DIT.
func (e *Environment) SyncOrgToDirectory() error {
	return org.ExportToDirectory(e.orgKB, e.dit)
}

// ImportExpertise derives responsibilities from filled org roles.
func (e *Environment) ImportExpertise() {
	e.expertise.ImportResponsibilities(e.orgKB)
}

// Report summarises the environment state (for cmd/moccad and examples).
type Report struct {
	Applications []string
	Quadrants    []string
	Schemas      []string
	Objects      int
	Activities   int
	OrgObjects   int
	Requirements int
}

// Snapshot builds a Report.
func (e *Environment) Snapshot() Report {
	return Report{
		Applications: e.Applications(),
		Quadrants:    e.Quadrants(),
		Schemas:      e.space.Registry().Schemas(),
		Objects:      e.space.Len(),
		Activities:   len(e.activities.List()),
		OrgObjects:   e.orgKB.Len(),
		Requirements: len(e.conform.All()),
	}
}
