// Package access provides the access control the paper's
// information-sharing requirement names: "appropriate access control
// mechanisms. (Traditionally, roles have been used to signify different
// access rights of users.)"
//
// Principals hold direct grants: a permission to perform an operation over
// the resources matching a pattern. The information model consults the
// System before every guarded operation, and sharing an object is a grant.
package access

import "sync"

// Op is a guarded operation.
type Op string

// Operations used across the environment.
const (
	OpRead  Op = "read"
	OpWrite Op = "write"
	OpShare Op = "share"
)

// permission grants op over resources matching pattern ('*' wildcards).
type permission struct {
	op      Op
	pattern string
}

// System is a grant database. Safe for concurrent use.
type System struct {
	mu         sync.RWMutex
	principals map[string][]permission
}

// NewSystem creates a system that permits nothing.
func NewSystem() *System {
	return &System{principals: make(map[string][]permission)}
}

// GrantPrincipal gives one principal a direct permission.
func (s *System) GrantPrincipal(principal string, op Op, pattern string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.principals[principal] = append(s.principals[principal], permission{op: op, pattern: pattern})
}

// Can reports whether the principal may perform op on resource.
func (s *System) Can(principal string, op Op, resource string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, p := range s.principals[principal] {
		if p.op == op && globMatch(p.pattern, resource) {
			return true
		}
	}
	return false
}

// globMatch matches pattern with '*' wildcards against s.
func globMatch(pattern, s string) bool {
	var pi, si int
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '*':
			star, mark = pi, si
			pi++
		case pi < len(pattern) && pattern[pi] == s[si]:
			pi++
			si++
		case star >= 0:
			mark++
			si = mark
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}
