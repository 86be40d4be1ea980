package access

import (
	"testing"
	"testing/quick"
)

func TestDirectPrincipalGrant(t *testing.T) {
	s := NewSystem()
	s.GrantPrincipal("eve", OpRead, "info/public/*")
	if !s.Can("eve", OpRead, "info/public/readme") {
		t.Fatal("direct grant not effective")
	}
	if s.Can("eve", OpRead, "info/secret") {
		t.Fatal("direct grant over-broad")
	}
	if s.Can("eve", OpWrite, "info/public/readme") || s.Can("mallory", OpRead, "info/public/readme") {
		t.Fatal("a grant leaked to another operation or principal")
	}
}

func TestNoPermissionsByDefault(t *testing.T) {
	s := NewSystem()
	f := func(principal, resource string) bool {
		return !s.Can(principal, OpRead, resource) &&
			!s.Can(principal, OpWrite, resource)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGrantImpliesCan(t *testing.T) {
	f := func(raw string) bool {
		// A granted pattern matches itself, '*' included.
		if len(raw) > 60 {
			raw = raw[:60]
		}
		s := NewSystem()
		s.GrantPrincipal("p", OpRead, raw)
		return s.Can("p", OpRead, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobPatterns(t *testing.T) {
	tests := []struct {
		pattern, s string
		want       bool
	}{
		{"info/*", "info/doc", true},
		{"info/*", "activity/doc", false},
		{"*", "anything", true},
		{"info/*/draft", "info/reports/draft", true},
		{"info/*/draft", "info/reports/final", false},
	}
	for _, tt := range tests {
		if got := globMatch(tt.pattern, tt.s); got != tt.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", tt.pattern, tt.s, got, tt.want)
		}
	}
}
