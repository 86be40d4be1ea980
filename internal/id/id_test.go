package id

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNextUnique(t *testing.T) {
	g := New()
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		v := g.Next("obj")
		if seen[v] {
			t.Fatalf("duplicate id %q at iteration %d", v, i)
		}
		seen[v] = true
	}
}

func TestDeterministicAcrossGenerators(t *testing.T) {
	a, b := NewSeeded(7), NewSeeded(7)
	for i := 0; i < 100; i++ {
		if got, want := a.Next("x"), b.Next("x"); got != want {
			t.Fatalf("iteration %d: %q != %q", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := NewSeeded(1), NewSeeded(2)
	same := 0
	for i := 0; i < 50; i++ {
		if a.Next("x") == b.Next("x") {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestKind(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"msg-1-00000000", "msg"},
		{"activity-12-deadbeef", "activity"},
		{"noseparator", ""},
		{"", ""},
		{"-1-abcdef01", ""},
	}
	for _, tt := range tests {
		if got := Kind(tt.in); got != tt.want {
			t.Errorf("Kind(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestSeqMonotonic(t *testing.T) {
	g := New()
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		v := g.Seq("k")
		if v != prev+1 {
			t.Fatalf("Seq = %d, want %d", v, prev+1)
		}
		prev = v
	}
	if g.Seq("other") != 1 {
		t.Fatal("Seq counters are not per-kind")
	}
}

func TestValidGenerated(t *testing.T) {
	g := New()
	for _, kind := range []string{"msg", "act", "node", "multi-part-kind"} {
		v := g.Next(kind)
		if !Valid(v) {
			t.Errorf("Valid(%q) = false for generated id", v)
		}
	}
}

func TestValidRejects(t *testing.T) {
	for _, bad := range []string{"", "x", "x-y", "x-0-00000000", "x-1-zzzz", "x-1-short", "-1-00000000"} {
		if Valid(bad) {
			t.Errorf("Valid(%q) = true, want false", bad)
		}
	}
}

func TestQuickGeneratedAlwaysValid(t *testing.T) {
	g := New()
	f := func(n uint8) bool {
		return Valid(g.Next("k")) && Kind(g.Next("kind")) == "kind"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNextMatchesSprintf: Next builds its ids by hand; they are byte for
// byte what fmt.Sprintf("%s-%d-%08x") gave (corr ids are on the wire), and
// the string is the only allocation.
func TestNextMatchesSprintf(t *testing.T) {
	g := NewSeeded(19)
	ref := rand.New(rand.NewSource(19))
	kinds := []string{"call", "msg", "a-kind-long-enough-to-spill-the-stack-buffer-and-still-come-out-right"}
	counters := map[string]uint64{}
	for i := 0; i < 10000; i++ {
		kind := kinds[i%7%len(kinds)]
		counters[kind]++
		want := fmt.Sprintf("%s-%d-%08x", kind, counters[kind], ref.Uint32())
		if got := g.Next(kind); got != want {
			t.Fatalf("draw %d: Next(%q) = %q, Sprintf form %q", i, kind, got, want)
		}
	}
	if n := testing.AllocsPerRun(1000, func() { g.Next("call") }); n != 1 {
		t.Fatalf("Next allocates %v times per id, want 1", n)
	}
}
