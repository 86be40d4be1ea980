// Package expertise implements the paper's User Expertise Model: "this
// model is expressed in terms of user's responsibility, which is imposed by
// the organisation and user's capabilities, which describes the users
// individual skills."
//
// The environment uses it to staff activities (who CAN do this?), and
// derives responsibilities from the roles people fill in the org model.
package expertise

import (
	"sort"
	"strings"
	"sync"

	"mocca/internal/org"
)

// Level grades a capability from novice to authority.
type Level int

// Capability levels.
const (
	LevelNovice Level = iota + 1
	LevelCompetent
	LevelProficient
	LevelExpert
	LevelAuthority
)

// Responsibility is organisation-imposed: the Source records where it came
// from (typically a role id in the org model).
type Responsibility struct {
	Name   string
	Source string
}

// Profile is one user's expertise record.
type Profile struct {
	User             string
	Capabilities     map[string]Level // skill -> level
	Responsibilities []Responsibility
}

// Model stores expertise profiles. Safe for concurrent use.
type Model struct {
	mu       sync.RWMutex
	profiles map[string]*Profile
}

// NewModel creates an empty model.
func NewModel() *Model {
	return &Model{profiles: make(map[string]*Profile)}
}

// ensureLocked returns (creating if needed) the profile for user.
func (m *Model) ensureLocked(user string) *Profile {
	p, ok := m.profiles[user]
	if !ok {
		p = &Profile{User: user, Capabilities: make(map[string]Level)}
		m.profiles[user] = p
	}
	return p
}

// SetCapability records a skill level (level 0 removes the skill).
func (m *Model) SetCapability(user, skill string, level Level) {
	skill = strings.ToLower(skill)
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.ensureLocked(user)
	if level <= 0 {
		delete(p.Capabilities, skill)
		return
	}
	p.Capabilities[skill] = level
}

// AddResponsibility imposes a responsibility (idempotent per name+source).
func (m *Model) AddResponsibility(user, name, source string) {
	name = strings.ToLower(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.ensureLocked(user)
	for _, r := range p.Responsibilities {
		if r.Name == name && r.Source == source {
			return
		}
	}
	p.Responsibilities = append(p.Responsibilities, Responsibility{Name: name, Source: source})
}

// FindCapable returns users holding the skill at >= min, ranked by level
// descending then name.
func (m *Model) FindCapable(skill string, min Level) []string {
	skill = strings.ToLower(skill)
	m.mu.RLock()
	defer m.mu.RUnlock()
	type ranked struct {
		user  string
		level Level
	}
	var rs []ranked
	for user, p := range m.profiles {
		if lvl, ok := p.Capabilities[skill]; ok && lvl >= min {
			rs = append(rs, ranked{user, lvl})
		}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].level != rs[j].level {
			return rs[i].level > rs[j].level
		}
		return rs[i].user < rs[j].user
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.user
	}
	return out
}

// ImportResponsibilities derives organisation-imposed responsibilities from
// the org model: every role a person fills becomes a responsibility sourced
// from that role.
func (m *Model) ImportResponsibilities(kb *org.KnowledgeBase) {
	for _, person := range kb.ObjectsByKind(org.KindPerson) {
		for _, roleID := range kb.RolesFilledBy(person.ID) {
			m.AddResponsibility(person.ID, roleID, "org:"+roleID)
		}
	}
}
