// Package policy is the tailorability toolkit the paper requires:
// "systems and the environment need to be tailorable both by developers and
// users... the environment need to provide a set of services akin to a
// developers toolkit to enable this tailorability... possible notations,
// languages, or services to support this tailorability will be an important
// area of research."
//
// It provides an event-action rule engine with a small textual notation,
// so both developers (Go API) and users (notation) can customise
// environment behaviour. Rules carry an author level; user rules
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

// Rule is one event-action rule.
type Rule struct {
	Name       string
	On         string // event kind ("*" = all)
	ActionName string
	Args       map[string]string
	Author     AuthorLevel
	Priority   int // higher fires first
}

// Errors of the engine.
var (
	ErrUnknownAction = errors.New("policy: unknown action")
	ErrRuleExists    = errors.New("policy: rule already exists")
	ErrActionDenied  = errors.New("policy: action not permitted at author level")
	ErrBadRule       = errors.New("policy: malformed rule")
)

// Engine evaluates rules against dispatched events.
type Engine struct {
	mu          sync.RWMutex
	rules       map[string]*Rule
	actions     map[string]Action
	userAllowed map[string]bool // actions permitted for user-level rules
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
	e.rules[r.Name] = &r
	return nil
}

// HasRules reports whether any rule is installed. With none, Dispatch does
// nothing, so a caller can skip building its attributes.
func (e *Engine) HasRules() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.rules) > 0
}

// Dispatch evaluates the event against all rules; matching rules fire in
// (priority desc, name) order. Action errors are not propagated —
// tailoring must not break the environment.
func (e *Engine) Dispatch(ev Event) int {
	e.mu.Lock()
	if len(e.rules) == 0 {
		e.mu.Unlock()
		return 0
	}
	matched := make([]*Rule, 0, 4)
	for _, r := range e.rules {
		if r.On == "*" || r.On == ev.Kind {
			matched = append(matched, r)
		}
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

	for _, f := range firings {
		_ = f.fn(ev, f.rule.Args) // contained: a failing action stops no other rule
	}
	return len(firings)
}
