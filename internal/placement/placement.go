// Package placement decides WHERE information objects live: the policy
// engine that maps each object to the set of sites whose replicas must
// hold it. The paper's position is that ODP's distribution transparencies
// only pay off in CSCW when replication is selective — a site should hold
// the information spaces of the activities it participates in, not a copy
// of the world — and placement is the enterprise-viewpoint knowledge
// ("who participates in what") that makes the information viewpoint's
// replication selective.
//
// A Policy is an ordered list of composable rules. Each rule governs one
// named space — a scope of the information space such as a schema
// ("schema:design-doc"), an activity ("activity:act-1") or an org unit
// ("org:gmd") — and pairs a membership predicate over object descriptors
// with the (possibly dynamic) site set that space is placed at. The first
// matching rule decides; an object no rule matches falls to the
// deterministic default of replicate-everywhere, so a deployment with no
// rules behaves exactly like full replication.
//
// Consumers:
//
//   - internal/replica filters digest deltas, pushes and applies by the
//     peer's interest set, so a site only receives rows of spaces it is
//     placed in;
//   - the trader carries one service offer per (site, hosted space) under
//     ServiceType, which is how a non-placed site resolves a holder for a
//     trader-mediated remote read (see server.go);
//   - internal/core consults the policy on reads and surfaces remote
//     serving via location transparency.
package placement

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mocca/internal/information"
)

// DefaultSpace names the implicit space of objects no rule matches; it is
// hosted by every site.
const DefaultSpace = "*"

// Descriptor is the view of an object a placement rule decides over. It
// deliberately carries no engineering state (version vectors, timestamps):
// placement is a function of what the object IS, not of its history, so
// every replica evaluating the same policy reaches the same decision.
type Descriptor struct {
	ID     string
	Schema string
	Owner  string
	Fields map[string]string
}

// Describe builds the descriptor for an information object.
func Describe(o *information.Object) Descriptor {
	return Descriptor{ID: o.ID, Schema: o.Schema, Owner: o.Owner, Fields: o.Fields}
}

// Rule is one composable placement rule: a predicate selecting the
// objects of its space, plus the site set that space is placed at.
type Rule interface {
	// Name identifies the rule in diagnostics and Placement results.
	Name() string
	// Space names the scope of the information space the rule governs,
	// e.g. "schema:design-doc" or "activity:act-7".
	Space() string
	// Match reports whether the descriptor belongs to the rule's space.
	Match(d Descriptor) bool
	// Sites returns the sites the space is currently placed at, sorted.
	// Empty means everywhere. Implementations may compute this dynamically
	// (activity membership changes move the space without a rule change).
	Sites() []string
}

// funcRule adapts plain functions to Rule.
type funcRule struct {
	name  string
	space string
	match func(Descriptor) bool
	sites func() []string
}

func (r funcRule) Name() string  { return r.name }
func (r funcRule) Space() string { return r.space }

func (r funcRule) Match(d Descriptor) bool { return r.match(d) }

func (r funcRule) Sites() []string {
	if r.sites == nil {
		return nil
	}
	out := append([]string(nil), r.sites()...)
	sort.Strings(out)
	return out
}

// NewRule builds a rule from functions. A nil sites function means the
// space is placed everywhere (the rule then only names a space).
func NewRule(name, space string, match func(Descriptor) bool, sites func() []string) Rule {
	return funcRule{name: name, space: space, match: match, sites: sites}
}

// staticSites freezes a site list for the rule constructors below.
func staticSites(sites []string) func() []string {
	frozen := append([]string(nil), sites...)
	return func() []string { return frozen }
}

// BySchema places every object of the named schema at the given sites —
// the information-viewpoint cut ("this document type lives at these
// archives"). No sites means everywhere.
func BySchema(schema string, sites ...string) Rule {
	space := "schema:" + strings.ToLower(schema)
	return funcRule{
		name:  space,
		space: space,
		match: func(d Descriptor) bool { return strings.EqualFold(d.Schema, schema) },
		sites: staticSites(sites),
	}
}

// ByField places objects whose field carries the given value at the given
// sites — the generic enterprise cut (e.g. field "org", value "gmd"). No
// sites means everywhere.
func ByField(field, value string, sites ...string) Rule {
	space := field + ":" + value
	return funcRule{
		name:  space,
		space: space,
		match: func(d Descriptor) bool { return d.Fields[field] == value },
		sites: staticSites(sites),
	}
}

// ByActivity places the information space of one activity at the sites of
// its members: an object belongs to the space when its field names the
// activity id, and the site set is looked up per decision, so membership
// changes move the space without touching the policy.
func ByActivity(activityID, field string, memberSites func(activityID string) []string) Rule {
	space := "activity:" + activityID
	return funcRule{
		name:  space,
		space: space,
		match: func(d Descriptor) bool { return d.Fields[field] == activityID },
		sites: func() []string { return memberSites(activityID) },
	}
}

// ByOrgUnit places an org unit's space at the sites the lookup names —
// the paper's organisational knowledge base dictating distribution, like
// it dictates the trading policy.
func ByOrgUnit(unit, field string, unitSites func(unit string) []string) Rule {
	space := "org:" + unit
	return funcRule{
		name:  space,
		space: space,
		match: func(d Descriptor) bool { return d.Fields[field] == unit },
		sites: func() []string { return unitSites(unit) },
	}
}

// Placement is a policy decision: where one object lives.
type Placement struct {
	// Space is the space the object belongs to (DefaultSpace when no rule
	// matched).
	Space string
	// Rule names the deciding rule ("" for the default).
	Rule string
	// Everywhere reports full replication for this object.
	Everywhere bool
	// Sites is the replica set, sorted; nil when Everywhere.
	Sites []string
}

// At reports whether the object is placed at the site.
func (p Placement) At(site string) bool {
	if p.Everywhere {
		return true
	}
	for _, s := range p.Sites {
		if s == site {
			return true
		}
	}
	return false
}

// Assignment is one rule's current space→sites mapping, for offer export
// and introspection.
type Assignment struct {
	Space string
	Rule  string
	// Sites the space is placed at, sorted; nil means everywhere.
	Sites []string
}

// At reports whether the space is placed at the site.
func (a Assignment) At(site string) bool {
	return Placement{Everywhere: len(a.Sites) == 0, Sites: a.Sites}.At(site)
}

// Stats counts policy activity.
type Stats struct {
	Decisions int64  // SitesFor / PlacedAt evaluations
	Matched   int64  // decisions a rule claimed
	Defaulted int64  // decisions that fell to replicate-everywhere
	Version   uint64 // bumped by every rule-set change
}

// Policy is the placement engine: an ordered rule list with change
// notification, shared by every site of a deployment so all replicas
// agree on where each object lives. Decisions run under a read lock
// with atomic counters — SitesFor/PlacedAt is the hottest read path in
// the system (called per object per peer per sync round by every
// replicator sharing the policy) and must not serialise on a writer
// lock.
type Policy struct {
	mu      sync.RWMutex
	rules   []Rule
	version uint64
	subs    []func()

	decisions atomic.Int64
	matched   atomic.Int64
	defaulted atomic.Int64
}

// NewPolicy creates a policy with no rules: everything replicates
// everywhere, which is exactly the pre-placement behaviour.
func NewPolicy() *Policy { return &Policy{} }

// Use replaces the rule set and notifies subscribers — the runtime
// placement-change entry point (subscribers re-export trader offers and
// migrate rows off de-placed sites).
func (p *Policy) Use(rules ...Rule) {
	p.mu.Lock()
	p.rules = append([]Rule(nil), rules...)
	p.version++
	subs := append([]func(){}, p.subs...)
	p.mu.Unlock()
	for _, fn := range subs {
		fn()
	}
}

// Add appends rules to the set and notifies subscribers.
func (p *Policy) Add(rules ...Rule) {
	p.mu.Lock()
	p.rules = append(p.rules, rules...)
	p.version++
	subs := append([]func(){}, p.subs...)
	p.mu.Unlock()
	for _, fn := range subs {
		fn()
	}
}

// Subscribe registers fn to run after every rule-set change. Callbacks
// run synchronously on the changing goroutine, outside the policy lock.
func (p *Policy) Subscribe(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.subs = append(p.subs, fn)
}

// Version returns the rule-set version (0 = never configured).
func (p *Policy) Version() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.version
}

// Rules lists the installed rule names in evaluation order.
func (p *Policy) Rules() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, len(p.rules))
	for i, r := range p.rules {
		out[i] = r.Name()
	}
	return out
}

// Stats returns a snapshot of the counters.
func (p *Policy) Stats() Stats {
	p.mu.RLock()
	version := p.version
	p.mu.RUnlock()
	return Stats{
		Decisions: p.decisions.Load(),
		Matched:   p.matched.Load(),
		Defaulted: p.defaulted.Load(),
		Version:   version,
	}
}

// SitesFor decides where the object lives: the first matching rule's
// current site set, or replicate-everywhere when no rule matches.
func (p *Policy) SitesFor(d Descriptor) Placement {
	p.decisions.Add(1)
	p.mu.RLock()
	rules := p.rules
	p.mu.RUnlock()
	// Rules are immutable once installed (Use/Add replace the slice), so
	// matching runs outside any lock.
	var matched Rule
	for _, r := range rules {
		if r.Match(d) {
			matched = r
			break
		}
	}
	if matched == nil {
		p.defaulted.Add(1)
		return Placement{Space: DefaultSpace, Everywhere: true}
	}
	p.matched.Add(1)
	sites := matched.Sites()
	return Placement{
		Space:      matched.Space(),
		Rule:       matched.Name(),
		Everywhere: len(sites) == 0,
		Sites:      sites,
	}
}

// PlacedAt reports whether the object is placed at the site.
func (p *Policy) PlacedAt(site string, d Descriptor) bool {
	return p.SitesFor(d).At(site)
}

// Selective reports whether any rules are installed — false means the
// policy is the replicate-everywhere default and filtering is a no-op.
func (p *Policy) Selective() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.rules) > 0
}

// Assignments returns every rule's current space→sites mapping, in
// evaluation order — the unit the deployment exports trader offers from.
func (p *Policy) Assignments() []Assignment {
	p.mu.RLock()
	rules := append([]Rule(nil), p.rules...)
	p.mu.RUnlock()
	out := make([]Assignment, len(rules))
	for i, r := range rules {
		out[i] = Assignment{Space: r.Space(), Rule: r.Name(), Sites: r.Sites()}
	}
	return out
}
