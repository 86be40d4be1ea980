package replica

import (
	"fmt"
	"math/rand"
	"testing"

	"mocca/internal/id"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
)

// dotWrite is one version of the object: the vector a tick at site made,
// and the counter it ticked site's entry to — the write's dot.
type dotWrite struct {
	site    string
	counter uint64
	vv      vclock.Version
}

// playDots plays a byte script as one object's history over 2–5 replicas,
// through the real write and apply paths: the object is created at s0;
// then each byte with the high bit clear is a write at site b%n, and each
// with it set merges the row of site (b>>3)%n into site b%n (a gossip push
// and its apply). A write at a site that holds no copy yet, or a merge
// from one, does nothing. After every step, each replica that holds a copy
// must name the object through DotID for exactly the writes whose dot its
// vector holds exactly — each one a write the copy dominates — and for no
// other. It returns every write and every copy the history held.
func playDots(tb testing.TB, script []byte) (writes []dotWrite, copies []vclock.Version) {
	tb.Helper()
	n := 2
	if len(script) > 0 {
		n += int(script[0]) % 4
		script = script[1:]
	}
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(7))
	registry := information.NewSchemaRegistry()
	if err := registry.Register(information.Schema{Name: "doc", Fields: []information.Field{
		{Name: "title", Type: information.FieldText, Required: true},
		{Name: "body", Type: information.FieldText},
	}}); err != nil {
		tb.Fatal(err)
	}
	ids := id.New()
	sites := make([]string, n)
	reps := make([]*Replicator, n)
	for i := range reps {
		sites[i] = fmt.Sprintf("s%d", i)
		sp := information.NewSpace(registry, nil, clk, information.WithSite(sites[i]), information.WithIDs(ids))
		ep := rpc.NewEndpoint(net.MustAddNode(netsim.Address("repl-"+sites[i])), clk, rpc.WithIDs(ids))
		reps[i] = New(ep, clk, sp)
	}
	obj, err := reps[0].space.Put("anyone", "doc", map[string]string{"title": "t0"})
	if err != nil {
		tb.Fatal(err)
	}
	oid := obj.ID
	writes = append(writes, dotWrite{site: "s0", counter: 1, vv: obj.VV.Clone()})
	copies = append(copies, obj.VV.Clone())
	for step, b := range script {
		dst := int(b) % n
		cur, held := reps[dst].space.Fetch(oid)
		if b&0x80 == 0 {
			if !held {
				continue
			}
			next, err := reps[dst].space.Update("anyone", oid, cur.Version, map[string]string{"title": fmt.Sprint("t", step)})
			if err != nil {
				tb.Fatal(err)
			}
			writes = append(writes, dotWrite{site: sites[dst], counter: next.VV.Counter(sites[dst]), vv: next.VV.Clone()})
		} else {
			src := int(b>>3) % n
			if src == dst {
				continue
			}
			reps[dst].ApplyWire(reps[src].FetchWire(nil, []string{oid}))
		}
		for i, r := range reps {
			row, ok := r.space.Fetch(oid)
			if !ok {
				continue
			}
			copies = append(copies, row.VV.Clone())
			for _, w := range writes {
				id, ok := r.DotID(w.site, w.counter)
				if want := row.VV.Counter(w.site) == w.counter; ok != want || (ok && id != oid) {
					tb.Fatalf("step %d: %s holding %v answers DotID(%s, %d) = %q, %v; want %v",
						step, sites[i], row.VV, w.site, w.counter, id, ok, want)
				}
				if ok && !row.VV.Dominates(w.vv) {
					tb.Fatalf("step %d: %s holding %v names write %v by its dot without dominating it",
						step, sites[i], row.VV, w.vv)
				}
			}
		}
	}
	return writes, copies
}

// checkDots requires, for every write V made by a tick at S to counter c
// and every copy L in the history, L.Counter(S) >= c exactly when L
// dominates V — the rule a rumor's dot relies on.
func checkDots(tb testing.TB, writes []dotWrite, copies []vclock.Version) {
	tb.Helper()
	for _, w := range writes {
		for _, l := range copies {
			if got, want := l.Counter(w.site) >= w.counter, l.Dominates(w.vv); got != want {
				tb.Fatalf("copy %v, write (%s, %d) = %v: the dot says %v, Dominates %v", l, w.site, w.counter, w.vv, got, want)
			}
		}
	}
}

// FuzzDotMatchesDominates: whatever history a script plays, a write's dot
// answers "does this copy hold it?" exactly as the write's whole vector
// does over every copy the history held, and every replica's DotID names
// the row for exactly the writes whose dot its copy holds exactly.
func FuzzDotMatchesDominates(f *testing.F) {
	f.Add([]byte{0, 0, 0x88, 1, 0x81, 0})
	f.Add([]byte{3, 1, 0x80, 0x89, 0x92, 2, 0x9b, 3, 4, 0xa3, 0x8c, 1, 0x84, 4})
	f.Add([]byte{2, 0x80, 0x81, 0x82, 0, 1, 2, 0x88, 0x91, 0x8a, 0x90})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		writes, copies := playDots(t, script)
		checkDots(t, writes, copies)
	})
}

// TestDotIDMatchesDominates: the fuzz target's check over 200 seeded
// histories of up to 40 steps, so every run asks a Replicator's DotID
// about concurrent writes, merges, stale copies and writes a later one of
// the same site superseded — and gets both answers often.
func TestDotIDMatchesDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	kinds := map[string]int{}
	for trial := 0; trial < 200; trial++ {
		script := make([]byte, 1+rng.Intn(40))
		rng.Read(script)
		writes, copies := playDots(t, script)
		checkDots(t, writes, copies)
		for _, w := range writes {
			for _, l := range copies {
				switch {
				case l.Counter(w.site) == w.counter:
					kinds["named"]++
				case l.Dominates(w.vv):
					kinds["superseded"]++
				default:
					kinds["lacking"]++
				}
			}
		}
	}
	for _, k := range []string{"named", "superseded", "lacking"} {
		if kinds[k] < 1000 {
			t.Fatalf("the histories held %v copies by what they say of a write; too few %s to mean anything", kinds, k)
		}
	}
}
