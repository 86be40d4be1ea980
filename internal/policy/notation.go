package policy

import (
	"fmt"
	"strings"
)

// ParseRule parses the user-facing rule notation:
//
//	rule <name> [priority <n>]
//	on <event-kind>
//	do <action> [key=value ...]
//
// Example:
//
//	rule urgent-mail priority 10
//	on mhs.delivered
//	do notify channel=popup
//
// Clauses may be separated by newlines or semicolons. Values containing
// spaces are double-quoted.
func ParseRule(text string, author AuthorLevel) (Rule, error) {
	r := Rule{Author: author, Args: map[string]string{}}
	clauses := splitClauses(text)
	if len(clauses) == 0 {
		return r, fmt.Errorf("%w: empty rule", ErrBadRule)
	}
	for _, clause := range clauses {
		fields := tokenize(clause)
		if len(fields) == 0 {
			continue
		}
		switch strings.ToLower(fields[0]) {
		case "rule":
			if len(fields) < 2 {
				return r, fmt.Errorf("%w: rule clause needs a name", ErrBadRule)
			}
			r.Name = fields[1]
			if len(fields) >= 4 && strings.EqualFold(fields[2], "priority") {
				var p int
				if _, err := fmt.Sscanf(fields[3], "%d", &p); err != nil {
					return r, fmt.Errorf("%w: bad priority %q", ErrBadRule, fields[3])
				}
				r.Priority = p
			}
		case "on":
			if len(fields) != 2 {
				return r, fmt.Errorf("%w: on clause needs one event kind", ErrBadRule)
			}
			r.On = fields[1]
		case "do":
			if len(fields) < 2 {
				return r, fmt.Errorf("%w: do clause needs an action", ErrBadRule)
			}
			r.ActionName = fields[1]
			for _, kv := range fields[2:] {
				parts := strings.SplitN(kv, "=", 2)
				if len(parts) != 2 {
					return r, fmt.Errorf("%w: bad action arg %q", ErrBadRule, kv)
				}
				r.Args[parts[0]] = parts[1]
			}
		default:
			return r, fmt.Errorf("%w: unknown clause %q", ErrBadRule, fields[0])
		}
	}
	if r.Name == "" {
		return r, fmt.Errorf("%w: missing rule clause", ErrBadRule)
	}
	if r.On == "" {
		return r, fmt.Errorf("%w: missing on clause", ErrBadRule)
	}
	if r.ActionName == "" {
		return r, fmt.Errorf("%w: missing do clause", ErrBadRule)
	}
	return r, nil
}

// splitClauses breaks rule text on newlines and semicolons.
func splitClauses(text string) []string {
	var out []string
	for _, line := range strings.FieldsFunc(text, func(r rune) bool { return r == '\n' || r == ';' }) {
		line = strings.TrimSpace(line)
		if line != "" {
			out = append(out, line)
		}
	}
	return out
}

// tokenize splits a clause on spaces, honouring double quotes.
func tokenize(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inQuote = !inQuote
		case c == ' ' || c == '\t':
			if inQuote {
				cur.WriteByte(c)
				continue
			}
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteByte(c)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// InstallRuleText parses and installs a rule in one step.
func (e *Engine) InstallRuleText(text string, author AuthorLevel) (string, error) {
	r, err := ParseRule(text, author)
	if err != nil {
		return "", err
	}
	if err := e.AddRule(r); err != nil {
		return "", err
	}
	return r.Name, nil
}
