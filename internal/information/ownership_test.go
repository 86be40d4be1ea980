package information

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mocca/internal/vclock"
)

// remoteRow is a row as a decoder would hand it over: written at site by
// counter writes, nothing shared with any other row.
func remoteRow(id, site string, counter uint64, at time.Time) *Object {
	return &Object{
		ID: id, Schema: "doc", Owner: "prinz", Site: site,
		Fields:  map[string]string{"title": fmt.Sprintf("rev %d", counter), "body": "text"},
		VV:      vclock.Version{site: counter},
		Version: counter,
		Created: at, Updated: at.Add(time.Duration(counter) * time.Second),
	}
}

func leafVector(t *DigestTree, id string) vclock.Version {
	leaf := map[string]vclock.Version{}
	t.LeafDigestInto(leaf, MerkleBucket(id))
	return leaf[id]
}

// TestApplyRemoteKeepsCopySemantics pins what bench/ledger.go relies on:
// the caller keeps its row, re-ticks it and applies it again, and neither
// the stored row nor the tree follows the caller's edits.
func TestApplyRemoteKeepsCopySemantics(t *testing.T) {
	_, b, clk := twoReplicas(t)
	remote := remoteRow("info-7", "gmd", 1, clk.Now())
	for round := uint64(1); round <= 3; round++ {
		changed, conflict, err := b.ApplyRemote(remote)
		if err != nil || !changed || conflict {
			t.Fatalf("round %d: changed=%v conflict=%v err=%v", round, changed, conflict, err)
		}
		stored, ok := b.Fetch(remote.ID)
		if !ok || stored == remote {
			t.Fatalf("round %d: stored row is the caller's (ok=%v)", round, ok)
		}
		// The caller edits everything it still owns.
		remote.Fields["title"] = "scribbled"
		remote.VV = remote.VV.Tick("gmd")
		remote.Version = remote.VV.Sum()

		if stored.Fields["title"] != fmt.Sprintf("rev %d", 1) || stored.VV.Counter("gmd") != round {
			t.Fatalf("round %d: stored row followed the caller's edit: %+v", round, stored)
		}
		if got := leafVector(b.Tree(), remote.ID); got.Compare(stored.VV) != vclock.Equal {
			t.Fatalf("round %d: tree holds %v, store %v", round, got, stored.VV)
		}
		remote.Fields["title"] = "rev 1"
	}
}

// TestAdoptTakesTheRow: on the unknown-id and causally-newer branches the
// stored row IS the given one; a concurrent merge stores a new row that
// shares the winner's fields and carries a fresh merged vector.
func TestAdoptTakesTheRow(t *testing.T) {
	_, b, clk := twoReplicas(t)
	t0 := clk.Now()

	first := remoteRow("info-7", "gmd", 1, t0)
	if changed, _, err := b.Adopt(first); err != nil || !changed {
		t.Fatalf("unknown id: changed=%v err=%v", changed, err)
	}
	if stored, _ := b.Fetch(first.ID); stored != first {
		t.Fatal("unknown id: the stored row is not the adopted one")
	}

	// Causally newer, but claiming a later creation: adopted, Created
	// clamped in place to the minimum.
	newer := remoteRow("info-7", "gmd", 2, t0.Add(time.Hour))
	if changed, _, err := b.Adopt(newer); err != nil || !changed {
		t.Fatalf("newer: changed=%v err=%v", changed, err)
	}
	stored, _ := b.Fetch(first.ID)
	if stored != newer || !stored.Created.Equal(t0) {
		t.Fatalf("newer: stored=%p want %p, created %v want %v", stored, newer, stored.Created, t0)
	}
	if first.VV.Counter("gmd") != 1 || !first.Created.Equal(t0) {
		t.Fatalf("the replaced row was edited: %+v", first)
	}

	// Concurrent: upc wrote on top of rev 1 while gmd wrote rev 2.
	rival := remoteRow("info-7", "upc", 1, t0)
	rival.VV = vclock.Version{"gmd": 1, "upc": 1}
	rival.Updated = newer.Updated.Add(time.Minute) // later writer wins
	changed, conflict, err := b.Adopt(rival)
	if err != nil || !changed || !conflict {
		t.Fatalf("concurrent: changed=%v conflict=%v err=%v", changed, conflict, err)
	}
	merged, _ := b.Fetch(first.ID)
	if merged == rival || merged == newer {
		t.Fatal("concurrent: a merge must store a new row")
	}
	if reflect.ValueOf(merged.Fields).Pointer() != reflect.ValueOf(rival.Fields).Pointer() {
		t.Fatal("concurrent: the merged row does not share the winner's fields")
	}
	if want := (vclock.Version{"gmd": 2, "upc": 1}); merged.VV.Compare(want) != vclock.Equal || merged.Version != 3 {
		t.Fatalf("concurrent: merged vector %v (v%d), want %v", merged.VV, merged.Version, want)
	}
	if newer.VV.Counter("upc") != 0 || rival.VV.Counter("gmd") != 1 {
		t.Fatalf("concurrent: an input vector was edited: %v / %v", newer.VV, rival.VV)
	}
}

// TestAdoptCopiesNothing: against ApplyRemote of the same rows, Adopt
// saves the Object and its two maps, and its own cost is the tree's
// vector, the index entry and the event's actor string.
func TestAdoptCopiesNothing(t *testing.T) {
	const runs = 200
	rows := func() []*Object {
		out := make([]*Object, runs+2)
		for i := range out {
			out[i] = remoteRow("info-7", "gmd", uint64(i+1), time.Unix(0, 0).UTC())
		}
		return out
	}
	measure := func(apply func(*Space, *Object) (bool, bool, error)) float64 {
		_, b, _ := twoReplicas(t)
		in, i := rows(), 0
		return testing.AllocsPerRun(runs, func() {
			if changed, _, err := apply(b, in[i]); err != nil || !changed {
				t.Fatalf("row %d: changed=%v err=%v", i, changed, err)
			}
			i++
		})
	}
	adopt := measure((*Space).Adopt)
	applyRemote := measure((*Space).ApplyRemote)
	t.Logf("allocs per apply: Adopt %.1f, ApplyRemote %.1f", adopt, applyRemote)
	if adopt > 8 {
		t.Errorf("Adopt allocates %.1f times per row, ceiling 8", adopt)
	}
	if applyRemote-adopt < 3 {
		t.Errorf("Adopt saves %.1f allocations on ApplyRemote, want the Object and both maps", applyRemote-adopt)
	}
}

// TestLeafDigestIntoCoversTheStore: the leaf digests of all buckets,
// merged into one map, are the store's digest — on the benchmark's
// 1 306-row scale and after removals — and sharing the tree's vectors
// costs no allocation.
func TestLeafDigestIntoCoversTheStore(t *testing.T) {
	sp := NewSpace(newDocRegistry(t), nil, vclock.NewSimulated(time.Unix(0, 0)), WithSite("gmd"))
	var ids []string
	for i := 0; i < 1306; i++ {
		obj, err := sp.Put("prinz", "interchange", map[string]string{"title": fmt.Sprintf("doc %d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, obj.ID)
	}
	all := func() map[string]vclock.Version {
		out := map[string]vclock.Version{}
		for b := uint32(0); b < MerkleLeaves; b++ {
			sp.Tree().LeafDigestInto(out, b)
		}
		sp.Tree().LeafDigestInto(out, MerkleLeaves) // out of range: nothing
		return out
	}
	if got, want := all(), sp.Digest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("leaf digests cover %d rows, the store holds %d", len(got), len(want))
	}
	for i := 0; i < len(ids); i += 3 {
		if _, err := sp.Drop(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := all(), sp.Digest(); !reflect.DeepEqual(got, want) || len(got) != 1306-436 {
		t.Fatalf("after removals: leaf digests cover %d rows, the store holds %d", len(got), len(want))
	}

	bucket, dst := MerkleBucket(ids[1]), make(map[string]vclock.Version, 8)
	if n := testing.AllocsPerRun(100, func() { sp.Tree().LeafDigestInto(dst, bucket) }); n != 0 {
		t.Errorf("LeafDigestInto allocates %.1f times per bucket, want 0", n)
	}
}
