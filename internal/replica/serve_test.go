package replica

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"mocca/internal/information"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// servedFixture is one replicator holding n rows, and their ids.
func servedFixture(t *testing.T, n int) (*Replicator, []string) {
	t.Helper()
	f := newFixture(t, 1)
	var ids []string
	for i := 0; i < n; i++ {
		obj, err := f.spaces[0].Put("prinz", "doc", map[string]string{"title": fmt.Sprintf("doc %d", i), "body": "text"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, obj.ID)
	}
	return f.reps[0], ids
}

// offer builds a request frame for node (level, index) whose hash agrees
// with the tree or, if mismatch is set, does not.
func offer(tree *information.DigestTree, level, index uint32, mismatch bool) wire.TreeFrame {
	h, _ := tree.NodeHash(level, index)
	if mismatch {
		h ^= 1
	}
	return wire.TreeFrame{Path: wire.PackTreePath(level, index), Hash: h}
}

// TestServeDigestFramesMatchReference: the children section serveDigest
// writes straight into the reply is byte for byte the reference layout —
// per mismatched internal node, its path and its tree.AppendChildren
// hashes — in one exact-size allocation that decodes back unchanged.
func TestServeDigestFramesMatchReference(t *testing.T) {
	r, _ := servedFixture(t, 400)
	tree := r.space.Tree()
	var all16 []wire.TreeFrame
	for i := uint32(0); i < information.MerkleFanout; i++ {
		all16 = append(all16, offer(tree, 1, i, true))
	}
	cases := []struct {
		name    string
		frames  []wire.TreeFrame
		parents int
	}{
		{"root", []wire.TreeFrame{offer(tree, 0, 0, true)}, 1},
		{"three of five", []wire.TreeFrame{
			offer(tree, 1, 0, true), offer(tree, 1, 3, false), offer(tree, 2, 17, true),
			offer(tree, 1, 9, false), offer(tree, 2, 255, true),
		}, 3},
		{"all sixteen", all16, 16},
		{"leaf level", []wire.TreeFrame{offer(tree, information.MerkleDepth, 4095, true)}, 0},
		{"leaf beside internal", []wire.TreeFrame{
			offer(tree, information.MerkleDepth, 7, true), offer(tree, 2, 7, true), offer(tree, 9, 0, true),
		}, 1},
	}
	for _, tc := range cases {
		var records []byte
		parents := 0
		for _, f := range tc.frames {
			level, index := wire.TreePathParts(f.Path)
			local, ok := tree.NodeHash(level, index)
			kids := tree.AppendChildren(nil, level, index)
			if !ok || local == f.Hash || len(kids) == 0 {
				continue
			}
			parents++
			records = wire.AppendUint64(records, f.Path)
			for _, h := range kids {
				records = wire.AppendUint64(records, h)
			}
		}
		if parents != tc.parents {
			t.Fatalf("%s: the reference yields %d parents, the case says %d", tc.name, parents, tc.parents)
		}
		resp, err := r.serveDigest(digestReq{Site: "s1", Frames: wire.AppendTreeFrames(nil, tc.frames)})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.Match {
			t.Errorf("%s: a mismatched frame answered Match", tc.name)
		}
		if parents == 0 {
			if len(resp.Children) != 0 {
				t.Errorf("%s: %d children bytes for a node without children", tc.name, len(resp.Children))
			}
			continue
		}
		if ref := append(wire.AppendUint64(nil, uint64(parents)), records...); !bytes.Equal(resp.Children, ref) {
			t.Errorf("%s: served children section differs from the reference\n got %x\nwant %x", tc.name, resp.Children, ref)
		}
		if len(resp.Children) != cap(resp.Children) || len(resp.Children) != 8+childRecordSize*parents {
			t.Errorf("%s: reply buffer holds %d bytes in a %d-byte allocation", tc.name, len(resp.Children), cap(resp.Children))
		}
		body, _ := resp.AppendBinary(nil)
		var back digestResp
		if err := back.UnmarshalBinary(body); err != nil || !bytes.Equal(back.Children, resp.Children) {
			t.Errorf("%s: the served section does not decode back", tc.name)
		}
	}
	if resp, err := r.serveDigest(digestReq{Site: "s1", Frames: rootFrame(tree), HW: map[string]uint64{}}); err != nil || !resp.Match || resp.Children != nil || resp.HW != nil {
		t.Errorf("matching root: %+v, %v", resp, err)
	}
}

// TestBadChildrenSectionIsRefused: a reply whose children section is not
// 8 + 136·n bytes for its count n is refused by the decoder, so descend
// — which reads the section in place — never sees it.
func TestBadChildrenSectionIsRefused(t *testing.T) {
	good := childrenSection(wire.PackTreePath(0, 0), wire.PackTreePath(1, 5))
	for _, section := range [][]byte{
		good[:4], good[:len(good)-1], good[:len(good)-8], good[:len(good)-childRecordSize],
		append(bytes.Clone(good), 0), append(bytes.Clone(good), make([]byte, 8)...),
	} {
		body, _ := digestResp{Site: "s1", Children: section}.AppendBinary(nil)
		var m digestResp
		if err := m.UnmarshalBinary(body); err == nil {
			t.Errorf("a %d-byte children section decoded", len(section))
		}
	}
}

// TestServeAllocationCeilings bounds what one served digest step costs
// now that rows and vectors are lent, not copied: a mismatched opening
// call (frames, marks, and every row as a fast-path delta) and a scoped
// sync over four buckets.
func TestServeAllocationCeilings(t *testing.T) {
	r, ids := servedFixture(t, 64)
	opening := digestReq{Site: "s1", Frames: rootFrame(information.NewDigestTree()), HW: map[string]uint64{}}
	resp, err := r.serveDigest(opening)
	if err != nil || resp.Match || len(resp.Deltas) != len(ids) {
		t.Fatalf("opening call: match=%v deltas=%d err=%v", resp.Match, len(resp.Deltas), err)
	}
	// Decoded frames, the reply's frames, the marks, the id list and the
	// growing row list — nothing per row but its slot in that list.
	if n := testing.AllocsPerRun(50, func() { _, _ = r.serveDigest(opening) }); n > 24 {
		t.Errorf("mismatched opening serveDigest over %d rows: %.0f allocations, ceiling 24", len(ids), n)
	}

	sync := syncReq{Site: "s1"}
	for _, id := range ids[:4] {
		sync.Scope = append(sync.Scope, information.MerkleBucket(id))
	}
	rows := len(r.serveScopedSync(sync).Deltas)
	if rows < 4 {
		t.Fatalf("scoped sync over 4 buckets served %d rows", rows)
	}
	// The digest map, the row list and the sort.
	if n := testing.AllocsPerRun(50, func() { r.serveScopedSync(sync) }); n > 12 {
		t.Errorf("serveScopedSync over 4 buckets (%d rows): %.0f allocations, ceiling 12", rows, n)
	}
}

// FuzzSyncWantMatchesDigestRule: the want-list a responder serves is
// exactly the set the caller-side rule picked when the responder mirrored
// its scoped digest back — the caller's ids whose entry in that digest is
// missing or does not dominate the caller's vector. Each four input bytes
// make one id: which sides hold it and how their vectors relate (equal,
// older, newer, concurrent), and the counters.
func FuzzSyncWantMatchesDigestRule(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 4, 5, 6, 2, 7, 8, 9, 3, 1, 1, 1, 4, 2, 0, 5, 5, 3, 3, 3})
	f.Add([]byte{3, 0, 0, 0, 3, 9, 9, 9, 5, 0, 0, 0, 4, 255, 255, 255})
	f.Fuzz(func(t *testing.T, in []byte) {
		r := newManualFixture(t, 1).reps[0]
		caller := map[string]vclock.Version{}
		var rows []*information.Object
		var scope []uint32
		for i := 0; i+4 <= len(in) && i < 4*64; i += 4 {
			id := fmt.Sprintf("obj%03d", i/4)
			base := vclock.Version{"s0": uint64(in[i+1]) + 1, "s1": uint64(in[i+2])}
			if in[i+3] > 0 {
				base["s2"] = uint64(in[i+3])
			}
			bumped := func(site string) vclock.Version {
				vv := maps.Clone(base)
				vv[site]++
				return vv
			}
			var mine, theirs vclock.Version
			switch in[i] % 6 {
			case 0: // the responder lacks it
				mine = base
			case 1: // the caller lacks it
				theirs = base
			case 2:
				mine, theirs = base, base
			case 3: // the caller's is older
				mine, theirs = base, bumped("s1")
			case 4: // the caller's is newer
				mine, theirs = bumped("s2"), base
			case 5:
				mine, theirs = bumped("s0"), bumped("s1")
			}
			if mine != nil {
				caller[id] = mine
			}
			if theirs != nil {
				rows = append(rows, &information.Object{ID: id, Schema: "doc", Owner: "prinz", Site: "s1",
					Fields: map[string]string{"title": id}, VV: theirs})
			}
			scope = append(scope, information.MerkleBucket(id))
		}
		if len(scope) == 0 {
			return
		}
		if _, _, refused := r.applyRows(rows); len(refused) > 0 {
			t.Fatalf("rows refused: %v", refused)
		}
		// The rule as the caller applied it to a mirrored digest.
		mirrored := map[string]vclock.Version{}
		for _, b := range scope {
			r.space.Tree().LeafDigestInto(mirrored, b)
		}
		var want []string
		for id, vv := range caller {
			if seen, ok := mirrored[id]; ok && seen.Dominates(vv) {
				continue
			}
			want = append(want, id)
		}
		slices.Sort(want)
		got := r.serveScopedSync(syncReq{Site: "s1", Digest: caller, Scope: scope}).Want
		if !slices.Equal(got, want) {
			t.Fatalf("want-list %v, the digest rule pushes %v", got, want)
		}
	})
}
