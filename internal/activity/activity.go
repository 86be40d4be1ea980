// Package activity implements the paper's Inter-activity Model. Rather
// than imposing one representation of activities, it provides the services
// §4 enumerates — "managing the membership of activities, sharing resources
// between activities, scheduling activities and monitoring the progress of
// activities, mechanisms for negotiating the responsibility for activities,
// mechanisms for negotiating the division of competence within activities,
// coordination of activities" — and it represents the dependencies BETWEEN
// activities that the model is named for (temporal relationships, common
// resources, shared information).
package activity

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mocca/internal/id"
	"mocca/internal/vclock"
)

// State is an activity's lifecycle state.
type State int

// Lifecycle states.
const (
	StateProposed State = iota + 1
	StateActive
	StateSuspended
	StateCompleted
	StateCancelled
)

var stateNames = map[State]string{
	StateProposed:  "proposed",
	StateActive:    "active",
	StateSuspended: "suspended",
	StateCompleted: "completed",
	StateCancelled: "cancelled",
}

// String implements fmt.Stringer.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// validTransitions encodes the lifecycle state machine.
var validTransitions = map[State][]State{
	StateProposed:  {StateActive, StateCancelled},
	StateActive:    {StateSuspended, StateCompleted, StateCancelled},
	StateSuspended: {StateActive, StateCancelled},
}

// DepKind is an inter-activity dependency kind.
type DepKind string

// Dependency kinds, mirroring two of §3's inter-relations: "activities may
// use common resources, ... can have well-defined temporal relationships".
const (
	// DepFinishStart: the target must complete before the source starts.
	DepFinishStart DepKind = "finish-start"
	// DepSharesResource: both activities use a common resource.
	DepSharesResource DepKind = "shares-resource"
)

// Dependency is a typed edge between activities.
type Dependency struct {
	From string
	Kind DepKind
	To   string
	// Detail names the shared resource where applicable.
	Detail string
}

// Activity is one cooperative activity.
type Activity struct {
	ID          string
	Name        string
	Goal        string
	State       State
	Coordinator string            // principal responsible for the activity
	Members     map[string]string // principal -> activity role
	Resources   []string          // org resource ids in use
	Progress    int               // 0..100
	Created     time.Time
	Updated     time.Time
}

// clone deep-copies the activity.
func (a *Activity) clone() *Activity {
	out := *a
	out.Members = make(map[string]string, len(a.Members))
	for k, v := range a.Members {
		out.Members[k] = v
	}
	out.Resources = append([]string(nil), a.Resources...)
	return &out
}

// Errors of the activity model.
var (
	ErrUnknownActivity = errors.New("activity: unknown activity")
	ErrBadTransition   = errors.New("activity: invalid state transition")
	ErrNotMember       = errors.New("activity: not a member")
	ErrDepCycle        = errors.New("activity: dependency cycle")
	ErrBlocked         = errors.New("activity: predecessors incomplete")
)

// EventKind discriminates registry events.
type EventKind string

// Event kinds.
const (
	EventCreated    EventKind = "created"
	EventTransition EventKind = "transition"
	EventJoined     EventKind = "joined"
	EventProgress   EventKind = "progress"
	EventUnblocked  EventKind = "unblocked"
	EventHandover   EventKind = "handover"
)

// Event notifies subscribers of activity changes.
type Event struct {
	Kind     EventKind
	Activity *Activity
	Actor    string
	Detail   string
	At       time.Time
}

// Registry is the activity store and coordination engine.
type Registry struct {
	clock vclock.Clock
	ids   *id.Generator

	mu   sync.RWMutex
	acts map[string]*Activity
	deps []Dependency
	subs []func(Event)
	negs map[string]*Negotiation
}

// Option configures a Registry.
type Option func(*Registry)

// WithIDs sets the id generator.
func WithIDs(g *id.Generator) Option {
	return func(r *Registry) { r.ids = g }
}

// NewRegistry creates an empty registry.
func NewRegistry(clock vclock.Clock, opts ...Option) *Registry {
	r := &Registry{
		clock: clock,
		acts:  make(map[string]*Activity),
		negs:  make(map[string]*Negotiation),
	}
	for _, opt := range opts {
		opt(r)
	}
	if r.ids == nil {
		r.ids = id.New()
	}
	return r
}

// Subscribe registers an event callback (synchronous, must not block).
func (r *Registry) Subscribe(fn func(Event)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.subs = append(r.subs, fn)
}

// Create proposes a new activity coordinated by the actor, who becomes its
// first member with the "coordinator" role.
func (r *Registry) Create(actor, name, goal string) (*Activity, error) {
	now := r.clock.Now()
	a := &Activity{
		ID:          r.ids.Next("act"),
		Name:        name,
		Goal:        goal,
		State:       StateProposed,
		Coordinator: actor,
		Members:     map[string]string{actor: "coordinator"},
		Created:     now,
		Updated:     now,
	}
	r.mu.Lock()
	r.acts[a.ID] = a
	snapshot := a.clone()
	r.mu.Unlock()
	r.notify(Event{Kind: EventCreated, Activity: snapshot, Actor: actor, At: now})
	return snapshot, nil
}

// Get returns a copy of the activity.
func (r *Registry) Get(actID string) (*Activity, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.acts[actID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownActivity, actID)
	}
	return a.clone(), nil
}

// List returns copies of all activities, sorted by id.
func (r *Registry) List() []*Activity {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Activity, 0, len(r.acts))
	for _, a := range r.acts {
		out = append(out, a.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Transition moves the activity to a new state, enforcing the lifecycle
// and — for activation — finish-start dependencies.
func (r *Registry) Transition(actor, actID string, to State) error {
	r.mu.Lock()
	a, ok := r.acts[actID]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownActivity, actID)
	}
	allowed := false
	for _, next := range validTransitions[a.State] {
		if next == to {
			allowed = true
			break
		}
	}
	if !allowed {
		from := a.State
		r.mu.Unlock()
		return fmt.Errorf("%w: %s -> %s", ErrBadTransition, from, to)
	}
	if to == StateActive && a.State == StateProposed {
		if blocked := r.incompletePredecessorsLocked(actID); len(blocked) > 0 {
			r.mu.Unlock()
			return fmt.Errorf("%w: %v", ErrBlocked, blocked)
		}
	}
	a.State = to
	if to == StateCompleted {
		a.Progress = 100
	}
	a.Updated = r.clock.Now()
	snapshot := a.clone()
	r.mu.Unlock()

	r.notify(Event{Kind: EventTransition, Activity: snapshot, Actor: actor, Detail: to.String(), At: snapshot.Updated})
	if to == StateCompleted {
		r.unblockSuccessors(actID)
	}
	return nil
}

// incompletePredecessorsLocked lists finish-start predecessors not yet
// completed.
func (r *Registry) incompletePredecessorsLocked(actID string) []string {
	var out []string
	for _, d := range r.deps {
		if d.From == actID && d.Kind == DepFinishStart {
			if pred, ok := r.acts[d.To]; ok && pred.State != StateCompleted {
				out = append(out, d.To)
			}
		}
	}
	sort.Strings(out)
	return out
}

// unblockSuccessors emits EventUnblocked for activities whose last
// incomplete predecessor just completed.
func (r *Registry) unblockSuccessors(completed string) {
	r.mu.RLock()
	var candidates []string
	for _, d := range r.deps {
		if d.To == completed && d.Kind == DepFinishStart {
			candidates = append(candidates, d.From)
		}
	}
	r.mu.RUnlock()
	for _, cid := range candidates {
		r.mu.RLock()
		blocked := r.incompletePredecessorsLocked(cid)
		a, ok := r.acts[cid]
		var snapshot *Activity
		if ok {
			snapshot = a.clone()
		}
		r.mu.RUnlock()
		if ok && len(blocked) == 0 && snapshot.State == StateProposed {
			r.notify(Event{Kind: EventUnblocked, Activity: snapshot, At: r.clock.Now()})
		}
	}
}

// Join adds a member with a role ("" defaults to "participant").
func (r *Registry) Join(actID, principal, role string) error {
	if role == "" {
		role = "participant"
	}
	r.mu.Lock()
	a, ok := r.acts[actID]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownActivity, actID)
	}
	a.Members[principal] = role
	a.Updated = r.clock.Now()
	snapshot := a.clone()
	r.mu.Unlock()
	r.notify(Event{Kind: EventJoined, Activity: snapshot, Actor: principal, Detail: role, At: snapshot.Updated})
	return nil
}

// SetProgress records progress (clamped to 0..100); members only.
func (r *Registry) SetProgress(actor, actID string, progress int) error {
	if progress < 0 {
		progress = 0
	}
	if progress > 100 {
		progress = 100
	}
	r.mu.Lock()
	a, ok := r.acts[actID]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownActivity, actID)
	}
	if _, ok := a.Members[actor]; !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotMember, actor)
	}
	a.Progress = progress
	a.Updated = r.clock.Now()
	snapshot := a.clone()
	r.mu.Unlock()
	r.notify(Event{Kind: EventProgress, Activity: snapshot, Actor: actor, Detail: fmt.Sprintf("%d", progress), At: snapshot.Updated})
	return nil
}

// UseResource records that the activity uses an organisational resource,
// and materialises shares-resource dependencies with other activities
// already using it.
func (r *Registry) UseResource(actID, resourceID string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.acts[actID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownActivity, actID)
	}
	for _, res := range a.Resources {
		if res == resourceID {
			return nil
		}
	}
	a.Resources = append(a.Resources, resourceID)
	for _, other := range r.acts {
		if other.ID == actID {
			continue
		}
		for _, res := range other.Resources {
			if res == resourceID {
				r.addDepLocked(Dependency{From: actID, Kind: DepSharesResource, To: other.ID, Detail: resourceID})
				r.addDepLocked(Dependency{From: other.ID, Kind: DepSharesResource, To: actID, Detail: resourceID})
			}
		}
	}
	return nil
}

// DependOn records a finish-start dependency: from cannot start until to
// completes. Temporal dependencies must stay acyclic.
func (r *Registry) DependOn(from, to string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.acts[from]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownActivity, from)
	}
	if _, ok := r.acts[to]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownActivity, to)
	}
	if from == to || r.temporalReachableLocked(to, from) {
		return fmt.Errorf("%w: %s -> %s", ErrDepCycle, from, to)
	}
	r.addDepLocked(Dependency{From: from, Kind: DepFinishStart, To: to})
	return nil
}

func (r *Registry) addDepLocked(d Dependency) {
	for _, existing := range r.deps {
		if existing == d {
			return
		}
	}
	r.deps = append(r.deps, d)
}

// temporalReachableLocked walks finish-start edges from start looking for
// target. Edge From -> To means From waits on To; a path to->...->from
// would close a cycle.
func (r *Registry) temporalReachableLocked(start, target string) bool {
	seen := map[string]bool{}
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == target {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		for _, d := range r.deps {
			if d.From == cur && d.Kind == DepFinishStart {
				queue = append(queue, d.To)
			}
		}
	}
	return false
}

// Dependencies returns dependencies out of the activity (all kinds),
// sorted.
func (r *Registry) Dependencies(actID string) []Dependency {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Dependency
	for _, d := range r.deps {
		if d.From == actID {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].To < out[j].To
	})
	return out
}

// Schedule returns activity ids in a start order respecting finish-start
// dependencies (prerequisites first). Stable for equal ranks (by id).
func (r *Registry) Schedule() ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	// Kahn's algorithm over From-waits-on-To edges.
	indeg := make(map[string]int, len(r.acts))
	for aid := range r.acts {
		indeg[aid] = 0
	}
	succ := make(map[string][]string)
	for _, d := range r.deps {
		if d.Kind != DepFinishStart {
			continue
		}
		// To must come before From.
		succ[d.To] = append(succ[d.To], d.From)
		indeg[d.From]++
	}
	var ready []string
	for aid, n := range indeg {
		if n == 0 {
			ready = append(ready, aid)
		}
	}
	sort.Strings(ready)
	var out []string
	for len(ready) > 0 {
		cur := ready[0]
		ready = ready[1:]
		out = append(out, cur)
		added := false
		for _, nxt := range succ[cur] {
			indeg[nxt]--
			if indeg[nxt] == 0 {
				ready = append(ready, nxt)
				added = true
			}
		}
		if added {
			sort.Strings(ready)
		}
	}
	if len(out) != len(r.acts) {
		return nil, fmt.Errorf("%w: %d of %d schedulable", ErrDepCycle, len(out), len(r.acts))
	}
	return out, nil
}

func (r *Registry) notify(ev Event) {
	r.mu.RLock()
	subs := make([]func(Event), len(r.subs))
	copy(subs, r.subs)
	r.mu.RUnlock()
	for _, fn := range subs {
		fn(ev)
	}
}
