// Package id provides identifier generation for the simulated environment.
//
// Identifiers are deterministic given a seed, which keeps simulation runs
// reproducible: the same scenario always names the same objects. The
// generator is safe for concurrent use.
package id

import (
	"math/rand"
	"strconv"
	"strings"
	"sync"
)

// Generator produces unique identifiers. The zero value is NOT usable; use
// New or NewSeeded.
type Generator struct {
	mu       sync.Mutex
	rng      *rand.Rand
	counters map[string]uint64
}

// New returns a Generator seeded with a fixed default seed, suitable for
// deterministic tests.
func New() *Generator { return NewSeeded(1992) }

// NewSeeded returns a Generator whose random component is derived from the
// given seed.
func NewSeeded(seed int64) *Generator {
	return &Generator{
		rng:      rand.New(rand.NewSource(seed)),
		counters: make(map[string]uint64),
	}
}

// Next returns the next identifier for the given kind, of the form
// "<kind>-<seq>-<entropy>", e.g. "msg-42-7f3a91c2". Sequence numbers are
// per-kind and start at 1.
func (g *Generator) Next(kind string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.counters[kind]++
	// "%s-%d-%08x", built in a stack buffer: the string is the one allocation.
	var room [64]byte
	b := append(room[:0], kind...)
	b = append(b, '-')
	b = strconv.AppendUint(b, g.counters[kind], 10)
	b = append(b, '-')
	const hex = "0123456789abcdef"
	for entropy, shift := g.rng.Uint32(), 28; shift >= 0; shift -= 4 {
		b = append(b, hex[entropy>>shift&0xf])
	}
	return string(b)
}

// Seq returns the next bare sequence number for the given kind.
func (g *Generator) Seq(kind string) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.counters[kind]++
	return g.counters[kind]
}

// Kind extracts the kind prefix from an identifier produced by Next, or ""
// if the identifier does not look like one.
func Kind(identifier string) string {
	i := strings.IndexByte(identifier, '-')
	if i <= 0 {
		return ""
	}
	return identifier[:i]
}

// Valid reports whether the identifier has the three-part shape produced by
// Next.
func Valid(identifier string) bool {
	parts := strings.Split(identifier, "-")
	if len(parts) < 3 {
		return false
	}
	if parts[0] == "" {
		return false
	}
	// Sequence part must be a positive decimal number.
	seq := parts[len(parts)-2]
	if seq == "" || seq == "0" {
		return false
	}
	for _, c := range seq {
		if c < '0' || c > '9' {
			return false
		}
	}
	ent := parts[len(parts)-1]
	if len(ent) != 8 {
		return false
	}
	for _, c := range ent {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}
