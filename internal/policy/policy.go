// Package policy is the tailorability toolkit the paper requires:
// "systems and the environment need to be tailorable both by developers and
// users... the environment need to provide a set of services akin to a
// developers toolkit to enable this tailorability... possible notations,
// languages, or services to support this tailorability will be an important
// area of research."
//
// It provides an event-condition-action (ECA) rule engine with a small
// textual notation, so both developers (Go API) and users (notation) can
// customise environment behaviour. Rules carry an author level; user rules
// can be restricted to a subset of actions — the paper's observation that
// "the traditional divide between users and developers becomes less clear"
// with guard rails.
package policy

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Event is an environment occurrence the engine reacts to: a kind plus
// free-form attributes.
type Event struct {
	Kind  string
	Attrs map[string]string
}

// Attr returns an attribute ("" when absent).
func (e Event) Attr(key string) string { return e.Attrs[key] }

// Condition guards a rule.
type Condition interface {
	// Eval reports whether the rule should fire for the event.
	Eval(ev Event) bool
	// String renders the condition in the notation.
	String() string
}

// Action is invoked when a rule fires. Implementations are registered with
// the engine by name so the notation can reference them.
type Action func(ev Event, args map[string]string) error

// AuthorLevel separates developer-installed from user-installed rules.
type AuthorLevel int

// Author levels.
const (
	LevelDeveloper AuthorLevel = iota + 1
	LevelUser
)

// String implements fmt.Stringer.
func (l AuthorLevel) String() string {
	switch l {
	case LevelDeveloper:
		return "developer"
	case LevelUser:
		return "user"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Rule is one ECA rule.
type Rule struct {
	Name       string
	On         string // event kind ("*" = all)
	Condition  Condition
	ActionName string
	Args       map[string]string
	Author     AuthorLevel
	Enabled    bool
	Priority   int // higher fires first
}

// Errors of the engine.
var (
	ErrUnknownAction = errors.New("policy: unknown action")
	ErrRuleExists    = errors.New("policy: rule already exists")
	ErrUnknownRule   = errors.New("policy: unknown rule")
	ErrActionDenied  = errors.New("policy: action not permitted at author level")
	ErrBadRule       = errors.New("policy: malformed rule")
)

// Firing records one rule execution for diagnostics.
type Firing struct {
	Rule  string
	Event string
	Err   error
}

// Engine evaluates rules against dispatched events.
type Engine struct {
	mu          sync.RWMutex
	rules       map[string]*Rule
	actions     map[string]Action
	userAllowed map[string]bool // actions permitted for user-level rules
	trace       []Firing
	stats       Stats
}

// Stats counts engine activity.
type Stats struct {
	Dispatched int64
	Fired      int64
	Errors     int64
}

// NewEngine creates an empty engine.
func NewEngine() *Engine {
	return &Engine{
		rules:       make(map[string]*Rule),
		actions:     make(map[string]Action),
		userAllowed: make(map[string]bool),
	}
}

// RegisterAction makes an action available to rules. userInstallable
// permits user-level rules to reference it.
func (e *Engine) RegisterAction(name string, fn Action, userInstallable bool) {
	name = strings.ToLower(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.actions[name] = fn
	if userInstallable {
		e.userAllowed[name] = true
	}
}

// AddRule installs a rule. User-level rules may only use user-installable
// actions.
func (e *Engine) AddRule(r Rule) error {
	r.ActionName = strings.ToLower(r.ActionName)
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.rules[r.Name]; ok {
		return fmt.Errorf("%w: %q", ErrRuleExists, r.Name)
	}
	if _, ok := e.actions[r.ActionName]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAction, r.ActionName)
	}
	if r.Author == LevelUser && !e.userAllowed[r.ActionName] {
		return fmt.Errorf("%w: %q", ErrActionDenied, r.ActionName)
	}
	if r.Author == 0 {
		r.Author = LevelDeveloper
	}
	r.Enabled = true
	if r.Condition == nil {
		r.Condition = True()
	}
	e.rules[r.Name] = &r
	return nil
}

// RemoveRule deletes a rule.
func (e *Engine) RemoveRule(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.rules[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRule, name)
	}
	delete(e.rules, name)
	return nil
}

// SetEnabled toggles a rule.
func (e *Engine) SetEnabled(name string, enabled bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.rules[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRule, name)
	}
	r.Enabled = enabled
	return nil
}

// Rules lists installed rule names, sorted.
func (e *Engine) Rules() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.rules))
	for name := range e.rules {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HasRules reports whether any rule is installed. With none, Dispatch only
// counts the event, so a caller can skip building its attributes.
func (e *Engine) HasRules() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.rules) > 0
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.stats
}

// Trace returns recent firings.
func (e *Engine) Trace() []Firing {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]Firing(nil), e.trace...)
}

// Dispatch evaluates the event against all rules; matching enabled rules
// fire in (priority desc, name) order. Action errors are recorded, not
// propagated — tailoring must not break the environment.
func (e *Engine) Dispatch(ev Event) int {
	e.mu.Lock()
	e.stats.Dispatched++
	if len(e.rules) == 0 {
		e.mu.Unlock()
		return 0
	}
	matched := make([]*Rule, 0, 4)
	for _, r := range e.rules {
		if !r.Enabled {
			continue
		}
		if r.On != "*" && r.On != ev.Kind {
			continue
		}
		if !r.Condition.Eval(ev) {
			continue
		}
		matched = append(matched, r)
	}
	sort.Slice(matched, func(i, j int) bool {
		if matched[i].Priority != matched[j].Priority {
			return matched[i].Priority > matched[j].Priority
		}
		return matched[i].Name < matched[j].Name
	})
	type firing struct {
		rule *Rule
		fn   Action
	}
	firings := make([]firing, len(matched))
	for i, r := range matched {
		firings[i] = firing{rule: r, fn: e.actions[r.ActionName]}
	}
	e.mu.Unlock()

	fired := 0
	for _, f := range firings {
		err := f.fn(ev, f.rule.Args)
		fired++
		e.mu.Lock()
		e.stats.Fired++
		if err != nil {
			e.stats.Errors++
		}
		e.trace = append(e.trace, Firing{Rule: f.rule.Name, Event: ev.Kind, Err: err})
		if len(e.trace) > 512 {
			e.trace = e.trace[len(e.trace)-512:]
		}
		e.mu.Unlock()
	}
	return fired
}

// Conditions

// True always fires.
func True() Condition { return trueCond{} }

type trueCond struct{}

func (trueCond) Eval(Event) bool { return true }
func (trueCond) String() string  { return "true" }

// AttrEq fires when the event attribute equals value.
func AttrEq(key, value string) Condition { return attrEq{key, value} }

type attrEq struct{ key, value string }

func (c attrEq) Eval(ev Event) bool { return ev.Attr(c.key) == c.value }
func (c attrEq) String() string     { return c.key + " == " + quoteIfNeeded(c.value) }

// AttrNe fires when the event attribute differs from value.
func AttrNe(key, value string) Condition { return attrNe{key, value} }

type attrNe struct{ key, value string }

func (c attrNe) Eval(ev Event) bool { return ev.Attr(c.key) != c.value }
func (c attrNe) String() string     { return c.key + " != " + quoteIfNeeded(c.value) }

// AttrContains fires when the event attribute contains the substring.
func AttrContains(key, sub string) Condition { return attrContains{key, sub} }

type attrContains struct{ key, sub string }

func (c attrContains) Eval(ev Event) bool {
	return strings.Contains(ev.Attr(c.key), c.sub)
}
func (c attrContains) String() string { return c.key + " contains " + quoteIfNeeded(c.sub) }

// AllOf fires when every sub-condition fires.
func AllOf(cs ...Condition) Condition { return allOf(cs) }

type allOf []Condition

func (c allOf) Eval(ev Event) bool {
	for _, sub := range c {
		if !sub.Eval(ev) {
			return false
		}
	}
	return true
}

func (c allOf) String() string {
	parts := make([]string, len(c))
	for i, sub := range c {
		parts[i] = sub.String()
	}
	return strings.Join(parts, " and ")
}

func quoteIfNeeded(s string) string {
	if strings.ContainsAny(s, " \t'\"") || s == "" {
		return fmt.Sprintf("%q", s)
	}
	return s
}
