package information

import (
	"sort"
	"testing"
	"time"

	"mocca/internal/id"
	"mocca/internal/vclock"
)

// twoReplicas builds two site replicas of one logical space: shared
// registry, no ACL (replication tests exercise merge policy, not guards).
func twoReplicas(t *testing.T) (*Space, *Space, *vclock.Simulated) {
	t.Helper()
	clk := vclock.NewSimulated(time.Date(1992, 6, 9, 9, 0, 0, 0, time.UTC))
	registry := NewSchemaRegistry()
	if err := registry.Register(Schema{Name: "doc", Fields: []Field{
		{Name: "title", Type: FieldText, Required: true},
		{Name: "body", Type: FieldText},
	}}); err != nil {
		t.Fatal(err)
	}
	ids := id.New()
	a := NewSpace(registry, nil, clk, WithSite("gmd"), WithIDs(ids))
	b := NewSpace(registry, nil, clk, WithSite("upc"), WithIDs(ids))
	return a, b, clk
}

// newerThan returns copies of from's rows the digest has not fully seen
// (absent, or not dominated), sorted by id — what a peer holding that
// digest lacks. The replica package finds the same rows by Merkle
// negotiation; the merge-policy tests here only need the answer.
func newerThan(from *Space, digest map[string]vclock.Version) []*Object {
	var out []*Object
	from.Range(func(o *Object) bool {
		if seen, ok := digest[o.ID]; !ok || !seen.Dominates(o.VV) {
			out = append(out, o.Clone())
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// syncPair runs one bidirectional anti-entropy exchange directly against
// the space API (the replica package does the same over rpc).
func syncPair(t *testing.T, a, b *Space) {
	t.Helper()
	for _, obj := range newerThan(b, a.Digest()) {
		if _, _, err := a.ApplyRemote(obj); err != nil {
			t.Fatal(err)
		}
	}
	for _, obj := range newerThan(a, b.Digest()) {
		if _, _, err := b.ApplyRemote(obj); err != nil {
			t.Fatal(err)
		}
	}
}

func assertConverged(t *testing.T, a, b *Space, objID string) *Object {
	t.Helper()
	oa, err := a.Get("anyone", objID)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := b.Get("anyone", objID)
	if err != nil {
		t.Fatal(err)
	}
	if oa.VV.Compare(ob.VV) != vclock.Equal {
		t.Fatalf("version vectors diverge: %v vs %v", oa.VV, ob.VV)
	}
	if oa.Version != ob.Version || oa.Site != ob.Site ||
		!oa.Updated.Equal(ob.Updated) || !oa.Created.Equal(ob.Created) {
		t.Fatalf("metadata diverges: %+v vs %+v", oa, ob)
	}
	if len(oa.Fields) != len(ob.Fields) {
		t.Fatalf("fields diverge: %v vs %v", oa.Fields, ob.Fields)
	}
	for k, v := range oa.Fields {
		if ob.Fields[k] != v {
			t.Fatalf("field %q diverges: %q vs %q", k, v, ob.Fields[k])
		}
	}
	return oa
}

func TestApplyRemoteAdoptsAndIgnores(t *testing.T) {
	a, b, _ := twoReplicas(t)
	obj, err := a.Put("prinz", "doc", map[string]string{"title": "draft"})
	if err != nil {
		t.Fatal(err)
	}
	if obj.VV.Counter("gmd") != 1 || obj.Site != "gmd" {
		t.Fatalf("put metadata: %+v", obj)
	}

	// b adopts the unknown object.
	changed, conflict, err := b.ApplyRemote(obj)
	if err != nil || !changed || conflict {
		t.Fatalf("adopt: changed=%v conflict=%v err=%v", changed, conflict, err)
	}
	// Re-applying the same state is a no-op.
	changed, conflict, err = b.ApplyRemote(obj)
	if err != nil || changed || conflict {
		t.Fatalf("idempotent apply: changed=%v conflict=%v err=%v", changed, conflict, err)
	}

	// A newer update on a flows to b as a clean apply.
	upd, err := a.Update("prinz", obj.ID, obj.Version, map[string]string{"title": "v2"})
	if err != nil {
		t.Fatal(err)
	}
	changed, conflict, err = b.ApplyRemote(upd)
	if err != nil || !changed || conflict {
		t.Fatalf("newer apply: changed=%v conflict=%v err=%v", changed, conflict, err)
	}
	// The stale original no longer changes b.
	if changed, _, _ = b.ApplyRemote(obj); changed {
		t.Fatal("stale state must not regress the replica")
	}
	assertConverged(t, a, b, obj.ID)
}

func TestApplyRemoteConcurrentSiteOrderedLWW(t *testing.T) {
	a, b, _ := twoReplicas(t)
	obj, err := a.Put("prinz", "doc", map[string]string{"title": "draft"})
	if err != nil {
		t.Fatal(err)
	}
	syncPair(t, a, b)

	var conflicts []Event
	a.Subscribe("", func(ev Event) {
		if ev.Kind == "conflict" {
			conflicts = append(conflicts, ev)
		}
	})

	// Concurrent updates at the same instant: site order breaks the tie,
	// and "upc" > "gmd".
	if _, err := a.Update("prinz", obj.ID, 1, map[string]string{"title": "gmd-edit"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Update("prinz", obj.ID, 1, map[string]string{"title": "upc-edit"}); err != nil {
		t.Fatal(err)
	}
	syncPair(t, a, b)
	syncPair(t, a, b) // a second round must be a no-op

	winner := assertConverged(t, a, b, obj.ID)
	if winner.Fields["title"] != "upc-edit" || winner.Site != "upc" {
		t.Fatalf("winner = %+v, want upc-edit by site order", winner)
	}
	if winner.VV.Counter("gmd") != 2 || winner.VV.Counter("upc") != 1 || winner.Version != 3 {
		t.Fatalf("merged history wrong: %+v", winner)
	}
	if len(conflicts) != 1 {
		t.Fatalf("conflict events on a = %d, want 1", len(conflicts))
	}
	c := conflicts[0].Conflict
	if c == nil || c.WinnerSite != "upc" || c.LoserSite != "gmd" || c.LoserFields["title"] != "gmd-edit" {
		t.Fatalf("conflict detail = %+v", c)
	}
	if st := a.Stats(); st.Conflicts != 1 || st.Applied == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestApplyRemoteConcurrentLaterWriterWins(t *testing.T) {
	a, b, clk := twoReplicas(t)
	obj, err := a.Put("prinz", "doc", map[string]string{"title": "draft"})
	if err != nil {
		t.Fatal(err)
	}
	syncPair(t, a, b)

	// upc writes first; gmd writes one second later. Despite the lower
	// site name, gmd wins on timestamp.
	if _, err := b.Update("prinz", obj.ID, 1, map[string]string{"title": "upc-edit"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := a.Update("prinz", obj.ID, 1, map[string]string{"title": "gmd-edit"}); err != nil {
		t.Fatal(err)
	}
	syncPair(t, a, b)
	winner := assertConverged(t, a, b, obj.ID)
	if winner.Fields["title"] != "gmd-edit" || winner.Site != "gmd" {
		t.Fatalf("winner = %+v, want gmd-edit by timestamp", winner)
	}
}

func TestDigestAndNewerThan(t *testing.T) {
	a, b, _ := twoReplicas(t)
	o1, err := a.Put("prinz", "doc", map[string]string{"title": "one"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Put("prinz", "doc", map[string]string{"title": "two"}); err != nil {
		t.Fatal(err)
	}
	// b knows nothing: the whole space is the delta, sorted by id.
	delta := newerThan(a, b.Digest())
	if len(delta) != 2 {
		t.Fatalf("delta = %d objects", len(delta))
	}
	if delta[0].ID >= delta[1].ID {
		t.Fatal("delta not sorted")
	}
	syncPair(t, a, b)
	if len(newerThan(a, b.Digest())) != 0 || len(newerThan(b, a.Digest())) != 0 {
		t.Fatal("converged replicas must exchange nothing")
	}
	// One more write makes exactly that object the delta.
	if _, err := a.Update("prinz", o1.ID, 1, map[string]string{"title": "one'"}); err != nil {
		t.Fatal(err)
	}
	delta = newerThan(a, b.Digest())
	if len(delta) != 1 || delta[0].ID != o1.ID {
		t.Fatalf("delta = %+v", delta)
	}
}

// TestApplyRemoteConcurrentCreatedConverges covers replicas that Put the
// SAME object id independently (reachable when sites run separate seeded
// id generators, which emit identical id streams) at different times:
// after crossing applies — each side merging the other's original — the
// Created timestamp must converge to the minimum on both, regardless of
// which side won the field conflict.
func TestApplyRemoteConcurrentCreatedConverges(t *testing.T) {
	clk := vclock.NewSimulated(time.Date(1992, 6, 9, 9, 0, 0, 0, time.UTC))
	registry := NewSchemaRegistry()
	if err := registry.Register(Schema{Name: "doc", Fields: []Field{
		{Name: "title", Type: FieldText, Required: true},
	}}); err != nil {
		t.Fatal(err)
	}
	a := NewSpace(registry, nil, clk, WithSite("gmd"), WithIDs(id.New()))
	b := NewSpace(registry, nil, clk, WithSite("upc"), WithIDs(id.New()))

	oa, err := a.Put("prinz", "doc", map[string]string{"title": "from-gmd"})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	ob, err := b.Put("navarro", "doc", map[string]string{"title": "from-upc"})
	if err != nil {
		t.Fatal(err)
	}
	if oa.ID != ob.ID {
		t.Fatalf("independent generators diverged: %s vs %s", oa.ID, ob.ID)
	}

	// Crossing rounds: each side applies the other's ORIGINAL, so each
	// resolves the conflict locally with a different winner orientation.
	if _, conflict, err := a.ApplyRemote(ob); err != nil || !conflict {
		t.Fatalf("a apply: conflict=%v err=%v", conflict, err)
	}
	if _, conflict, err := b.ApplyRemote(oa); err != nil || !conflict {
		t.Fatalf("b apply: conflict=%v err=%v", conflict, err)
	}
	got := assertConverged(t, a, b, oa.ID)
	if !got.Created.Equal(oa.Created) {
		t.Fatalf("Created = %v, want the earlier instant %v", got.Created, oa.Created)
	}
	if got.Fields["title"] != "from-upc" {
		t.Fatalf("winner = %v, want later writer", got.Fields)
	}
}
