package information

import (
	"fmt"
	"sort"
	"sync"
)

// Relation is one edge of the relationship graph in dump form.
type Relation struct {
	From string
	Kind RelKind
	To   string
}

// RelationGraph is the relationship graph every backend holds: typed edges
// between object ids, kept acyclic per kind. It knows ids, not rows —
// whether an endpoint exists is its owner's question, because only a
// backend knows its tiers. The zero value is an empty graph.
//
// It has its own lock, so reads take none of the owner's. Check and Add are
// two calls so that a durable backend can log the edge between them; the
// owner serialises its writers (every backend already does, to order its
// mutations), so nothing changes the graph between the two.
type RelationGraph struct {
	mu    sync.RWMutex
	edges map[string]map[RelKind][]string // from -> kind -> to ids
}

// Check refuses an edge that would close a cycle over its kind (from == to
// included) with ErrCycle. An edge already present passes.
func (g *RelationGraph) Check(rel Relation) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if rel.From == rel.To || g.reachableLocked(rel.To, rel.Kind, rel.From) {
		return fmt.Errorf("%w: %s -[%s]-> %s", ErrCycle, rel.From, rel.Kind, rel.To)
	}
	return nil
}

// reachableLocked reports whether target is reachable from start over kind.
func (g *RelationGraph) reachableLocked(start string, kind RelKind, target string) bool {
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
		queue = append(queue, g.edges[cur][kind]...)
	}
	return false
}

// Add inserts the edge without validating it: the caller has just Checked
// it, or is loading edges that were validated when they were written (a
// manifest). Adding an edge already present is a no-op.
func (g *RelationGraph) Add(rel Relation) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.edges == nil {
		g.edges = make(map[string]map[RelKind][]string)
	}
	if g.edges[rel.From] == nil {
		g.edges[rel.From] = make(map[RelKind][]string)
	}
	for _, existing := range g.edges[rel.From][rel.Kind] {
		if existing == rel.To {
			return
		}
	}
	g.edges[rel.From][rel.Kind] = append(g.edges[rel.From][rel.Kind], rel.To)
}

// Strip drops every edge touching id, as source or as target — what a
// backend does when it removes the row: a dangling edge would fail the
// endpoint check when a durable copy of the graph is replayed.
func (g *RelationGraph) Strip(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.edges, id)
	for from, kinds := range g.edges {
		for kind, tos := range kinds {
			kept := tos[:0]
			for _, to := range tos {
				if to != id {
					kept = append(kept, to)
				}
			}
			if len(kept) == 0 {
				delete(kinds, kind)
			} else {
				kinds[kind] = kept
			}
		}
		if len(kinds) == 0 {
			delete(g.edges, from)
		}
	}
}

// Related returns directly related object ids, sorted.
func (g *RelationGraph) Related(from string, kind RelKind) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := append([]string(nil), g.edges[from][kind]...)
	sort.Strings(out)
	return out
}

// Relations dumps every edge, sorted by (from, kind, to) — the unit a
// durable backend persists alongside object rows.
func (g *RelationGraph) Relations() []Relation {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Relation
	for from, kinds := range g.edges {
		for kind, tos := range kinds {
			for _, to := range tos {
				out = append(out, Relation{From: from, Kind: kind, To: to})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.To < b.To
	})
	return out
}

// Dependents returns ids of objects that relate TO the given id over kind.
func (g *RelationGraph) Dependents(to string, kind RelKind) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	for from, kinds := range g.edges {
		for _, t := range kinds[kind] {
			if t == to {
				out = append(out, from)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Closure returns all ids transitively reachable from id over kind.
func (g *RelationGraph) Closure(from string, kind RelKind) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	seen := map[string]bool{from: true}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		next := append([]string(nil), g.edges[cur][kind]...)
		sort.Strings(next)
		for _, n := range next {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
				queue = append(queue, n)
			}
		}
	}
	return out
}
