package information

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"mocca/internal/vclock"
)

// The Merkle digest tree summarises a replica's id→version-vector digest
// so anti-entropy rounds stop shipping the full digest: converged
// replicas compare one root hash, divergent ones descend only the
// mismatched subtrees. The tree structure is a protocol constant — every
// replica buckets ids the same way — so hashes compare across sites.
const (
	// MerkleFanout is the number of children per internal node.
	MerkleFanout = 16
	// MerkleDepth is the number of levels below the root; nodes at level
	// MerkleDepth are the leaves.
	MerkleDepth = 3
	// MerkleLeaves is the leaf count, MerkleFanout^MerkleDepth.
	MerkleLeaves = 4096
)

// Every hash in the tree is 64-bit FNV-1a. The values are a protocol
// constant (roots compare across replicas and releases); the function is
// written out here, not taken from hash/fnv, so hashing an id or a node
// on the commit path allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// MerkleBucket maps an object id to its leaf bucket. The assignment is a
// pure function of the id, so every replica files the same object under
// the same leaf.
func MerkleBucket(id string) uint32 {
	return uint32(fnvString(fnvOffset64, id) & (MerkleLeaves - 1))
}

// merkleEntry is one object's contribution to its leaf: the entry hash
// (folded into the leaf by XOR) plus the version vector it was computed
// from, kept so updates can be ordered and leaf digests need no store
// access. A leaf keeps its entries sorted by id in one slice: at
// organization scale most of the MerkleLeaves buckets hold one entry or
// none, where a map per bucket cost several times the entry itself.
type merkleEntry struct {
	id   string
	hash uint64
	vv   vclock.Version
}

// findEntry returns where id is, or would go, in a leaf's sorted entries.
func findEntry(leaf []merkleEntry, id string) (int, bool) {
	return slices.BinarySearchFunc(leaf, id, func(e merkleEntry, id string) int { return strings.Compare(e.id, id) })
}

// entryHash hashes one (id, version-vector) pair. The vector is encoded
// canonically (vclock.AppendBinary, sorted sites), so equal object states
// hash equally at every replica.
func entryHash(id string, vv vclock.Version) uint64 {
	h := fnvString(fnvOffset64, id)
	h *= fnvPrime64   // a zero byte between id and vector
	var buf [128]byte // a vector of a few sites encodes on the stack
	return fnvBytes(h, vv.AppendBinary(buf[:0]))
}

// siteChunk bounds one sorted run of a siteIndex: an insert or removal
// moves at most this many items.
const siteChunk = 256

// hwItem is one (counter, id) pair of a siteIndex. The id shares its
// bytes with the leaf entry's.
type hwItem struct {
	c  uint64
	id string
}

func (a hwItem) compare(b hwItem) int {
	if c := cmp.Compare(a.c, b.c); c != 0 {
		return c
	}
	return strings.Compare(a.id, b.id)
}

// siteIndex is what the tree knows about one writer site: its high-water
// mark, and every entry whose vector records a non-zero counter for the
// site, ordered by (counter, id), so the entries past a given mark are a
// suffix. The order is kept in sorted chunks of at most siteChunk items
// (every chunk non-empty, chunks in order): insert and removal cost a
// binary search plus a bounded move whatever the counter distribution.
type siteIndex struct {
	name   string
	top    uint64 // monotone: survives the removal of the entry that set it
	chunks [][]hwItem
}

// locate returns the chunk that holds it, or would, its place there, and
// whether it is there.
func (x *siteIndex) locate(it hwItem) (ci, i int, found bool) {
	// The last chunk that starts at or before it; the first if none does.
	ci, found = slices.BinarySearchFunc(x.chunks, it, func(ch []hwItem, it hwItem) int { return ch[0].compare(it) })
	if !found && ci > 0 {
		ci--
	}
	i, found = slices.BinarySearchFunc(x.chunks[ci], it, hwItem.compare)
	return ci, i, found
}

func (x *siteIndex) insert(it hwItem) {
	if len(x.chunks) == 0 {
		x.chunks = append(x.chunks, []hwItem{it})
		return
	}
	ci, i, _ := x.locate(it)
	ch := x.chunks[ci]
	if len(ch) == siteChunk {
		const half = siteChunk / 2
		right := slices.Clone(ch[half:])
		clear(ch[half:])
		ch = ch[:half]
		x.chunks[ci] = ch
		x.chunks = slices.Insert(x.chunks, ci+1, right)
		if i > half {
			ci, i, ch = ci+1, i-half, right
		}
	}
	x.chunks[ci] = slices.Insert(ch, i, it)
}

func (x *siteIndex) remove(it hwItem) {
	ci, i, found := x.locate(it)
	if !found {
		panic("information: digest tree index out of step with its entries")
	}
	ch := x.chunks[ci]
	if len(ch) == 1 {
		x.chunks = slices.Delete(x.chunks, ci, ci+1)
		return
	}
	x.chunks[ci] = slices.Delete(ch, i, i+1)
}

// appendAbove appends the ids of the items whose counter exceeds mark.
func (x *siteIndex) appendAbove(out []string, mark uint64) []string {
	for ci := len(x.chunks) - 1; ci >= 0; ci-- {
		ch := x.chunks[ci]
		for i := len(ch) - 1; i >= 0; i-- {
			if ch[i].c <= mark {
				return out
			}
			out = append(out, ch[i].id)
		}
	}
	return out
}

// DigestTree is the incremental Merkle summary of a replica's digest.
// Leaves fold their entries with XOR (so an entry update is O(1) on the
// leaf), internal nodes hash their children, and every mutation
// recomputes only the root path — O(MerkleDepth·MerkleFanout) hash work
// per commit. It also tracks per-site high-water marks (the maximum
// counter any entry records per site) and, per site, its entries in
// counter order: the fast path the sync protocol tries before descending
// the tree asks for the rows past a peer's marks, and that answer costs
// O(sites + rows returned), nothing when the peer's marks dominate.
//
// The tree is storage-agnostic and rebuilt from Backend.Range when a
// Space opens over recovered state, so a durable replica re-enters
// anti-entropy with the exact root it crashed with.
type DigestTree struct {
	mu      sync.RWMutex
	buckets [MerkleLeaves][]merkleEntry // each sorted by id
	levels  [][]uint64                  // levels[0] = [root], levels[MerkleDepth] = leaves
	sites   map[string]*siteIndex
	order   []*siteIndex // sites by name: the marks section's order
	count   int
}

// NewDigestTree creates an empty tree with all internal hashes computed,
// so two empty replicas compare equal from the first round.
func NewDigestTree() *DigestTree {
	t := &DigestTree{sites: make(map[string]*siteIndex)}
	t.levels = make([][]uint64, MerkleDepth+1)
	size := 1
	for l := 0; l <= MerkleDepth; l++ {
		t.levels[l] = make([]uint64, size)
		size *= MerkleFanout
	}
	for l := MerkleDepth - 1; l >= 0; l-- {
		for i := range t.levels[l] {
			t.levels[l][i] = t.hashChildrenLocked(l, uint32(i))
		}
	}
	return t
}

// hashChildrenLocked hashes the MerkleFanout children of node (level,
// index) into the node's hash. Internal nodes use a positional hash (not
// XOR) so a change in any leaf avalanches up to the root.
func (t *DigestTree) hashChildrenLocked(level int, index uint32) uint64 {
	h := uint64(fnvOffset64)
	base := index * MerkleFanout
	for _, c := range t.levels[level+1][base : base+MerkleFanout] {
		// The eight bytes of c, most significant first; written out
		// because this chain of multiplies is a third of a commit.
		h = (h ^ c>>56) * fnvPrime64
		h = (h ^ c>>48&0xff) * fnvPrime64
		h = (h ^ c>>40&0xff) * fnvPrime64
		h = (h ^ c>>32&0xff) * fnvPrime64
		h = (h ^ c>>24&0xff) * fnvPrime64
		h = (h ^ c>>16&0xff) * fnvPrime64
		h = (h ^ c>>8&0xff) * fnvPrime64
		h = (h ^ c&0xff) * fnvPrime64
	}
	return h
}

// recomputePathLocked recomputes every internal node on the path from
// leaf bucket b up to the root.
func (t *DigestTree) recomputePathLocked(b uint32) {
	idx := b
	for l := MerkleDepth - 1; l >= 0; l-- {
		idx /= MerkleFanout
		t.levels[l][idx] = t.hashChildrenLocked(l, idx)
	}
}

// Update records the object's current version vector. A call whose
// vector the stored entry already dominates is ignored — the commit it
// describes lost a store-level race to a newer one — so tree state can
// never regress behind the store under concurrent writers.
//
// The entry keeps vv itself, not a copy: the caller must not mutate vv
// afterwards. Stored rows and their vectors are immutable, so handing over
// a row's vector costs nothing and shares it with the store.
func (t *DigestTree) Update(id string, vv vclock.Version) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := MerkleBucket(id)
	leaf := t.buckets[b]
	i, ok := findEntry(leaf, id)
	var old vclock.Version
	if ok {
		if leaf[i].vv.Dominates(vv) {
			return
		}
		t.levels[MerkleDepth][b] ^= leaf[i].hash
		id, old = leaf[i].id, leaf[i].vv // one copy of the id's bytes per entry
		t.unfileLocked(id, old, vv)
	} else {
		t.count++
		leaf = slices.Insert(leaf, i, merkleEntry{})
		t.buckets[b] = leaf
	}
	// File the id under each site whose counter is new. A zero counter is
	// never past a mark, so it is not indexed.
	for s, c := range vv {
		if c == 0 || old[s] == c {
			continue
		}
		x := t.sites[s]
		if x == nil {
			x = &siteIndex{name: s}
			t.sites[s] = x
			at, _ := slices.BinarySearchFunc(t.order, s, func(x *siteIndex, s string) int { return strings.Compare(x.name, s) })
			t.order = slices.Insert(t.order, at, x)
		}
		x.insert(hwItem{c, id})
		x.top = max(x.top, c)
	}
	leaf[i] = merkleEntry{id: id, hash: entryHash(id, vv), vv: vv}
	t.levels[MerkleDepth][b] ^= leaf[i].hash
	t.recomputePathLocked(b)
}

// unfileLocked takes id out of the index of every site where vector old
// filed it and vector vv (nil on removal) will not.
func (t *DigestTree) unfileLocked(id string, old, vv vclock.Version) {
	for s, c := range old {
		if c > 0 && vv[s] != c {
			t.sites[s].remove(hwItem{c, id})
		}
	}
}

// Remove drops the object's entry (a no-op for unknown ids). High-water
// marks are deliberately monotone and survive removals: the sync fast
// path reads them as a bound the root hash then verifies, and a Space
// numbers its next write past its own site's mark, so a counter it
// issued is not issued again while the tree lives.
func (t *DigestTree) Remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := MerkleBucket(id)
	leaf := t.buckets[b]
	i, ok := findEntry(leaf, id)
	if !ok {
		return
	}
	cur := leaf[i]
	if len(leaf) == 1 {
		t.buckets[b] = nil
	} else {
		t.buckets[b] = slices.Delete(leaf, i, i+1)
	}
	t.count--
	t.levels[MerkleDepth][b] ^= cur.hash
	t.unfileLocked(cur.id, cur.vv, nil)
	t.recomputePathLocked(b)
}

// Root returns the root hash — equal roots mean (up to hash collision)
// equal digests.
func (t *DigestTree) Root() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.levels[0][0]
}

// NodeHash returns the hash of node (level, index); ok is false for
// positions outside the tree.
func (t *DigestTree) NodeHash(level, index uint32) (uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(level) >= len(t.levels) || int(index) >= len(t.levels[level]) {
		return 0, false
	}
	return t.levels[level][index], true
}

// AppendChildren appends the hashes of the MerkleFanout children of
// internal node (level, index) to dst — nothing when the node is a leaf or
// out of range. A caller passes a [MerkleFanout]uint64 on its stack.
func (t *DigestTree) AppendChildren(dst []uint64, level, index uint32) []uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(level) >= MerkleDepth || int(index) >= len(t.levels[level]) {
		return dst
	}
	base := index * MerkleFanout
	return append(dst, t.levels[level+1][base:base+MerkleFanout]...)
}

// LeafDigestInto adds the id→version-vector digest of one leaf bucket to
// dst — the scoped digest a divergent leaf exchanges instead of the full
// one. The vectors are the tree's own, shared read-only: Update builds a
// fresh one per entry and never edits it.
func (t *DigestTree) LeafDigestInto(dst map[string]vclock.Version, bucket uint32) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if bucket >= MerkleLeaves {
		return
	}
	for _, e := range t.buckets[bucket] {
		dst[e.id] = e.vv
	}
}

// HighWater returns a copy of the per-site high-water marks: for each
// site, the maximum counter any entry's vector records.
func (t *DigestTree) HighWater() map[string]uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[string]uint64, len(t.sites))
	for s, x := range t.sites {
		out[s] = x.top
	}
	return out
}

// Top returns site's high-water mark: the maximum counter any entry's
// vector has recorded for the site since the tree was built (0 if none).
// A Space numbers its own site's next write past it.
func (t *DigestTree) Top(site string) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if x := t.sites[site]; x != nil {
		return x.top
	}
	return 0
}

// DotID names the entry that holds the write (site, counter): the one whose
// vector's site entry is exactly counter, the least id if several are. ok
// is false when none is — the write never arrived, or a later write of the
// same site has superseded it on its row. It reads the site's index: a
// binary search, whatever the tree holds.
func (t *DigestTree) DotID(site string, counter uint64) (id string, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	x := t.sites[site]
	if x == nil || counter == 0 || len(x.chunks) == 0 {
		return "", false
	}
	// The least item at or past (counter, ""): the chunk's end means the
	// next chunk's first.
	ci, i, _ := x.locate(hwItem{c: counter})
	if i == len(x.chunks[ci]) {
		if ci++; ci == len(x.chunks) {
			return "", false
		}
		i = 0
	}
	if it := x.chunks[ci][i]; it.c == counter {
		return it.id, true
	}
	return "", false
}

// NewerThanHW returns the ids (sorted, deterministic) whose vectors
// record a counter past the given high-water marks — rows a replica with
// those marks has certainly not seen. The converse does not hold (a row
// below the marks can still be missing), which is why the protocol
// verifies with a root compare afterwards.
//
// A site whose own mark the given one reaches has no such row (the mark
// bounds every entry's counter, also after removals) and is skipped
// without a look at its entries; the others are read from the top of
// their index down to the given mark.
func (t *DigestTree) NewerThanHW(hw map[string]uint64) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []string
	for s, x := range t.sites {
		if mark := hw[s]; x.top > mark {
			out = x.appendAbove(out, mark)
		}
	}
	// An entry past the marks of several sites was collected once per site.
	slices.Sort(out)
	return slices.Compact(out)
}

// Count returns the number of entries.
func (t *DigestTree) Count() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}
