package replica

import (
	"bytes"
	"fmt"
	"testing"

	"mocca/internal/information"
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

// TestServeDigestFramesMatchReference: the child frames serveDigest
// writes straight into the reply are byte for byte what the loop it
// replaced produced — a []wire.TreeFrame of every mismatched node's
// children through wire.AppendTreeFrames.
func TestServeDigestFramesMatchReference(t *testing.T) {
	r, _ := servedFixture(t, 400)
	tree := r.space.Tree()
	var all16 []wire.TreeFrame
	for i := uint32(0); i < information.MerkleFanout; i++ {
		all16 = append(all16, offer(tree, 1, i, true))
	}
	cases := []struct {
		name     string
		frames   []wire.TreeFrame
		children int
	}{
		{"root", []wire.TreeFrame{offer(tree, 0, 0, true)}, 16},
		{"three of five", []wire.TreeFrame{
			offer(tree, 1, 0, true), offer(tree, 1, 3, false), offer(tree, 2, 17, true),
			offer(tree, 1, 9, false), offer(tree, 2, 255, true),
		}, 48},
		{"all sixteen", all16, 256},
		{"leaf level", []wire.TreeFrame{offer(tree, information.MerkleDepth, 4095, true)}, 0},
		{"leaf beside internal", []wire.TreeFrame{
			offer(tree, information.MerkleDepth, 7, true), offer(tree, 2, 7, true), offer(tree, 9, 0, true),
		}, 16},
	}
	for _, tc := range cases {
		var want []wire.TreeFrame
		for _, f := range tc.frames {
			level, index := wire.TreePathParts(f.Path)
			if local, ok := tree.NodeHash(level, index); !ok || local == f.Hash {
				continue
			}
			for j, h := range tree.AppendChildren(nil, level, index) {
				want = append(want, wire.TreeFrame{Path: wire.PackTreePath(level+1, index*information.MerkleFanout+uint32(j)), Hash: h})
			}
		}
		if len(want) != tc.children {
			t.Fatalf("%s: the reference loop yields %d children, the case says %d", tc.name, len(want), tc.children)
		}
		resp, err := r.serveDigest(digestReq{Site: "s1", Frames: wire.AppendTreeFrames(nil, tc.frames)})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.Match {
			t.Errorf("%s: a mismatched frame answered Match", tc.name)
		}
		if len(want) == 0 {
			if len(resp.Frames) != 0 {
				t.Errorf("%s: %d frame bytes for a node without children", tc.name, len(resp.Frames))
			}
			continue
		}
		if ref := wire.AppendTreeFrames(nil, want); !bytes.Equal(resp.Frames, ref) {
			t.Errorf("%s: served frames differ from wire.AppendTreeFrames of the children\n got %x\nwant %x", tc.name, resp.Frames, ref)
		}
		if len(resp.Frames) != cap(resp.Frames) {
			t.Errorf("%s: reply buffer holds %d bytes in a %d-byte allocation", tc.name, len(resp.Frames), cap(resp.Frames))
		}
	}
	if resp, err := r.serveDigest(digestReq{Site: "s1", Frames: rootFrame(tree)}); err != nil || !resp.Match || resp.Frames != nil {
		t.Errorf("matching root: %+v, %v", resp, err)
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
