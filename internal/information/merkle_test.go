package information

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"mocca/internal/vclock"
)

// rebuildTree builds a fresh tree from scratch over the same entries —
// the recovery-equivalence oracle for the incremental maintenance.
func rebuildTree(entries map[string]vclock.Version) *DigestTree {
	t := NewDigestTree()
	for id, vv := range entries {
		t.Update(id, vv)
	}
	return t
}

func TestDigestTreeIncrementalMatchesRebuild(t *testing.T) {
	tree := NewDigestTree()
	state := make(map[string]vclock.Version)
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("info-%04d", i)
		vv := vclock.Version{"s0": uint64(i%3 + 1), "s1": uint64(i % 2)}
		tree.Update(id, vv)
		state[id] = vv.Clone()
	}
	// Mutate some, remove some.
	for i := 0; i < 500; i += 7 {
		id := fmt.Sprintf("info-%04d", i)
		vv := state[id].Clone().Tick("s1")
		tree.Update(id, vv)
		state[id] = vv
	}
	for i := 0; i < 500; i += 13 {
		id := fmt.Sprintf("info-%04d", i)
		tree.Remove(id)
		delete(state, id)
	}
	if got, want := tree.Count(), len(state); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if tree.Root() != rebuildTree(state).Root() {
		t.Fatal("incremental root diverged from rebuild")
	}
}

func TestDigestTreeOrderIndependence(t *testing.T) {
	a, b := NewDigestTree(), NewDigestTree()
	vvs := map[string]vclock.Version{
		"x": {"s0": 2}, "y": {"s1": 1}, "z": {"s0": 1, "s1": 3},
	}
	for _, id := range []string{"x", "y", "z"} {
		a.Update(id, vvs[id])
	}
	for _, id := range []string{"z", "x", "y"} {
		b.Update(id, vvs[id])
	}
	if a.Root() != b.Root() {
		t.Fatal("insertion order changed the root")
	}
	// A stale update (dominated vector) must not regress the tree.
	b.Update("x", vclock.Version{"s0": 1})
	if a.Root() != b.Root() {
		t.Fatal("dominated update regressed the root")
	}
	// Divergence is visible; re-convergence restores equality.
	b.Update("x", vclock.Version{"s0": 3})
	if a.Root() == b.Root() {
		t.Fatal("divergent trees compare equal")
	}
	a.Update("x", vclock.Version{"s0": 3})
	if a.Root() != b.Root() {
		t.Fatal("re-converged trees differ")
	}
}

func TestDigestTreeEmptyTreesAgree(t *testing.T) {
	if NewDigestTree().Root() != NewDigestTree().Root() {
		t.Fatal("empty roots differ")
	}
	tr := NewDigestTree()
	tr.Update("a", vclock.Version{"s0": 1})
	tr.Remove("a")
	if tr.Root() != NewDigestTree().Root() {
		t.Fatal("emptied tree differs from fresh tree")
	}
}

func TestDigestTreeDescentFindsDivergentLeaf(t *testing.T) {
	a, b := NewDigestTree(), NewDigestTree()
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("obj-%04d", i)
		a.Update(id, vclock.Version{"s0": 1})
		b.Update(id, vclock.Version{"s0": 1})
	}
	changed := "obj-0042"
	a.Update(changed, vclock.Version{"s0": 2})

	// Walk the mismatch from the root: exactly one child per level
	// differs, ending at the changed id's bucket.
	level, index := uint32(0), uint32(0)
	for int(level) < MerkleDepth {
		ca, cb := a.AppendChildren(nil, level, index), b.AppendChildren(nil, level, index)
		diff := -1
		for j := range ca {
			if ca[j] != cb[j] {
				if diff >= 0 {
					t.Fatalf("level %d: more than one divergent child", level)
				}
				diff = j
			}
		}
		if diff < 0 {
			t.Fatalf("level %d node %d: no divergent child under a root mismatch", level, index)
		}
		index = index*MerkleFanout + uint32(diff)
		level++
	}
	if index != MerkleBucket(changed) {
		t.Fatalf("descent ended at bucket %d, want %d", index, MerkleBucket(changed))
	}
	if leafVector(a, changed) == nil {
		t.Fatal("leaf digest misses the changed id")
	}
}

func TestDigestTreeHighWater(t *testing.T) {
	tr := NewDigestTree()
	tr.Update("a", vclock.Version{"s0": 3})
	tr.Update("b", vclock.Version{"s0": 1, "s1": 5})
	hw := tr.HighWater()
	if hw["s0"] != 3 || hw["s1"] != 5 {
		t.Fatalf("hw = %v", hw)
	}
	ids := tr.NewerThanHW(map[string]uint64{"s0": 2, "s1": 5})
	if len(ids) != 1 || ids[0] != "a" {
		t.Fatalf("NewerThanHW = %v, want [a]", ids)
	}
	if got := tr.NewerThanHW(hw); len(got) != 0 {
		t.Fatalf("NewerThanHW(own hw) = %v, want none", got)
	}

	// Marks are monotone: removing the only entry that holds a site's top
	// counter leaves them where they were, so they may under-promise — a
	// peer one below that top is owed nothing the tree still has.
	tr.Remove("b")
	if got := tr.HighWater(); !reflect.DeepEqual(got, hw) {
		t.Fatalf("hw after Remove = %v, want %v unchanged", got, hw)
	}
	if got := tr.NewerThanHW(map[string]uint64{"s0": 3, "s1": 4}); got != nil {
		t.Fatalf("NewerThanHW below a removed top = %v, want none", got)
	}
	// The mark still answers for the entries that remain.
	if got := tr.NewerThanHW(map[string]uint64{"s0": 2, "s1": 4}); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("NewerThanHW = %v, want [a]", got)
	}
}

// scanNewerThanHW is the definition NewerThanHW answers to: look at every
// entry of every bucket. The tree did exactly this before it kept a
// per-site index.
func scanNewerThanHW(t *DigestTree, hw map[string]uint64) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []string
	for b := range t.buckets {
		for _, e := range t.buckets[b] {
			for s, c := range e.vv {
				if c > hw[s] {
					out = append(out, e.id)
					break
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// hwProbes are the marks the differential test asks with: none, the
// tree's own, marks naming sites the tree never saw, and the tree's own
// lowered by one at each site in turn and at all sites together.
func hwProbes(own map[string]uint64) []map[string]uint64 {
	with := func(edit func(map[string]uint64)) map[string]uint64 {
		m := maps.Clone(own)
		edit(m)
		return m
	}
	probes := []map[string]uint64{
		nil,
		own,
		{"nowhere": 7},
		with(func(m map[string]uint64) { m["nowhere"] = 7 }),
		with(func(m map[string]uint64) {
			for s := range m {
				m[s]--
			}
		}),
	}
	for s := range own {
		probes = append(probes, with(func(m map[string]uint64) { m[s]-- }))
	}
	return probes
}

func checkAgainstScan(t *testing.T, tree *DigestTree, step int) {
	t.Helper()
	for _, hw := range hwProbes(tree.HighWater()) {
		got, want := tree.NewerThanHW(hw), scanNewerThanHW(tree, hw)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: NewerThanHW(%v) = %v, the scan says %v", step, hw, got, want)
		}
	}
}

func TestNewerThanHWMatchesScan(t *testing.T) {
	sites := []string{"s0", "s1", "s2", "s3"}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree := NewDigestTree()
		model := make(map[string]vclock.Version) // what the tree must hold

		// A reader beside the writer, for the race detector: every answer
		// it sees must be sorted whatever step it lands in.
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				ids := tree.NewerThanHW(map[string]uint64{"s0": 1})
				if !sort.StringsAreSorted(ids) || len(ids) > tree.Count()+1 {
					t.Errorf("concurrent NewerThanHW unsorted or oversized: %d ids", len(ids))
					return
				}
				tree.HighWater()
			}
		}()

		// 400 ids, every one first written at counter 1 by s0: that
		// site's index has to split a chunk, and removals drain it again.
		const steps = 800
		chunks := 0
		for step := 0; step < steps; step++ {
			id := fmt.Sprintf("obj-%03d", rng.Intn(400))
			cur, held := model[id]
			var vv vclock.Version
			switch op := rng.Intn(10); {
			case !held && op < 8: // fresh, sometimes born with several sites
				vv = vclock.NewVersion(sites[0])
				for rng.Intn(3) == 0 {
					vv[sites[rng.Intn(len(sites))]] = uint64(1 + rng.Intn(4))
				}
			case !held: // Remove of an id the tree does not hold
				tree.Remove(id)
			case op < 4: // dominating
				vv = cur.Clone().Tick(sites[rng.Intn(len(sites))])
			case op < 6: // dominated or equal: the tree must ignore it
				vv = cur.Clone()
				if s := sites[rng.Intn(len(sites))]; vv[s] > 1 {
					vv[s]--
				}
			case op < 8: // concurrent: behind at one site, ahead at another
				vv = cur.Clone()
				a, b := sites[rng.Intn(len(sites))], sites[rng.Intn(len(sites))]
				if vv[a] > 1 {
					vv[a]--
				}
				vv[b] += 2
			default:
				tree.Remove(id)
				delete(model, id)
			}
			if vv != nil {
				tree.Update(id, vv)
				if o := cur.Compare(vv); !held || (o != vclock.After && o != vclock.Equal) {
					model[id] = vv
				}
			}
			checkAgainstScan(t, tree, step)
			if x := tree.sites[sites[0]]; x != nil {
				chunks = max(chunks, len(x.chunks))
			}
		}
		close(stop)
		<-done
		if chunks < 2 {
			t.Fatalf("seed %d: the sequence never split an index chunk", seed)
		}

		if tree.Count() != len(model) {
			t.Fatalf("seed %d: tree holds %d entries, model %d", seed, tree.Count(), len(model))
		}
		// A tree built from the final entries alone: same root, same
		// answers. Its marks are the maxima over those entries; the
		// incremental tree's are monotone, so never below them.
		rebuilt := rebuildTree(model)
		if rebuilt.Root() != tree.Root() {
			t.Fatalf("seed %d: rebuilt root differs", seed)
		}
		own := tree.HighWater()
		for s, c := range rebuilt.HighWater() {
			if own[s] < c {
				t.Fatalf("seed %d: mark for %s is %d, below the held maximum %d", seed, s, own[s], c)
			}
		}
		for _, hw := range hwProbes(own) {
			if got, want := rebuilt.NewerThanHW(hw), tree.NewerThanHW(hw); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: rebuilt NewerThanHW(%v) = %v, incremental %v", seed, hw, got, want)
			}
		}
		// Once an entry holds every site's top again, the marks agree too.
		crown := vclock.Version(own)
		tree.Update("crown", crown)
		model["crown"] = crown
		if got := rebuildTree(model).HighWater(); !reflect.DeepEqual(got, tree.HighWater()) {
			t.Fatalf("seed %d: rebuilt marks %v, incremental %v", seed, got, tree.HighWater())
		}
		checkAgainstScan(t, tree, steps)
	}
}

// Roots compare across replicas of different releases, so the bucket and
// entry hashes are pinned to the values hash/fnv gave them.
func TestMerkleHashesArePinned(t *testing.T) {
	eighteen := vclock.Version{}
	for i := 0; i < 18; i++ {
		eighteen[fmt.Sprintf("s%02d", i)] = uint64(i + 1)
	}
	cases := []struct {
		id     string
		vv     vclock.Version
		bucket uint32
		hash   uint64
	}{
		{"", nil, 805, 0xe604823a249029bf},
		{"", vclock.Version{}, 805, 0xe604823a249029bf},
		{"a", vclock.Version{"s0": 1}, 3212, 0x74928b8eff51ceb1},
		{"info-0042", vclock.Version{"s000": 1}, 2338, 0x9ce205fe60b42829},
		{"info-0042", vclock.Version{"s000": 2}, 2338, 0x9ce202fe60b42310},
		{"info-0042", vclock.Version{"s000": 1, "s001": 1}, 2338, 0xb51174917fa1f253},
		{"obj/with/slashes", vclock.Version{"zeta": 1<<64 - 1, "alpha": 256, "mid": 65536}, 3229, 0x4ac9f1522ffccf2a},
		{"héllo-wörld-✓", vclock.Version{"site-é": 7}, 3647, 0xd1d27d02e92b4e06},
		// Past entryHash's stack buffer.
		{"a-rather-long-identifier-that-exceeds-thirty-two-bytes-of-stack-buffer", eighteen, 450, 0x54d082e2b9163170},
		{"x", vclock.Version{"": 0}, 1799, 0x6ef3008aec6bde32},
	}
	tree := NewDigestTree()
	if got := tree.Root(); got != 0x9c7674ce9ca69b25 {
		t.Fatalf("empty root = %#016x", got)
	}
	for _, c := range cases {
		if got := MerkleBucket(c.id); got != c.bucket {
			t.Errorf("MerkleBucket(%q) = %d, want %d", c.id, got, c.bucket)
		}
		if got := entryHash(c.id, c.vv); got != c.hash {
			t.Errorf("entryHash(%q, %v) = %#016x, want %#016x", c.id, c.vv, got, c.hash)
		}
		tree.Update(c.id, c.vv)
	}
	if got := tree.Root(); got != 0xefded5a6b35f84c3 {
		t.Fatalf("root over the table = %#016x", got)
	}
}

func TestSpaceTreeFollowsCommitsAndRecovery(t *testing.T) {
	registry := NewSchemaRegistry()
	if err := registry.Register(Schema{Name: "doc", Fields: []Field{
		{Name: "title", Type: FieldText, Required: true},
	}}); err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewSimulated(time.Unix(0, 0))
	a := NewSpace(registry, nil, clk, WithSite("s0"))
	b := NewSpace(registry, nil, clk, WithSite("s1"))

	obj, err := a.Put("ada", "doc", map[string]string{"title": "one"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Tree().Root() == b.Tree().Root() {
		t.Fatal("write did not move the root")
	}
	if _, _, err := b.ApplyRemote(obj); err != nil {
		t.Fatal(err)
	}
	if a.Tree().Root() != b.Tree().Root() {
		t.Fatal("converged replicas disagree on the root")
	}

	// A Space opened over the same backend state rebuilds the same tree —
	// the recovery contract.
	reopened := NewSpace(registry, nil, clk, WithSite("s0"), WithBackend(backendOf(a)))
	if reopened.Tree().Root() != a.Tree().Root() {
		t.Fatal("rebuilt tree differs from the incremental one")
	}

	// Drop removes the entry from the tree.
	if _, err := a.Drop(obj.ID); err != nil {
		t.Fatal(err)
	}
	if a.Tree().Count() != 0 || a.Tree().Root() != NewDigestTree().Root() {
		t.Fatal("drop left tree state behind")
	}
}

// backendOf exposes a space's backend for the reopen test.
func backendOf(s *Space) Backend { return s.store }

// benchTree holds n entries spread over 16 writer sites the way a seeded
// organization leaves them: every object at its writer's counter 1, a
// third of them updated once or twice since.
func benchTree(n int) (*DigestTree, []string) {
	tree := NewDigestTree()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("info-%07d", i)
		tree.Update(ids[i], vclock.Version{fmt.Sprintf("s%03d", i%16): uint64(1 + i%3)})
	}
	return tree, ids
}

var benchIDs []string

func BenchmarkDigestTreeNewerThanHW(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		tree, ids := benchTree(n)
		own := tree.HighWater()
		// One write the peer has not seen: a site's top moved by one.
		tree.Update(ids[n/2], vclock.Version{"s000": own["s000"] + 1})
		for _, c := range []struct {
			name string
			hw   map[string]uint64
			want int
		}{
			{"none-past", tree.HighWater(), 0},
			{"one-past", own, 1},
			{"all-past", nil, n},
		} {
			b.Run(fmt.Sprintf("entries=%d/%s", n, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchIDs = tree.NewerThanHW(c.hw)
				}
				if len(benchIDs) != c.want {
					b.Fatalf("%d ids, want %d", len(benchIDs), c.want)
				}
			})
		}
	}
}

// The commit-side price of the index: every iteration replaces one
// entry's vector with a dominating one.
func BenchmarkDigestTreeUpdate(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			tree, ids := benchTree(n)
			vvs := make([]vclock.Version, 16) // Update keeps a clone, so one per site serves
			for k := range vvs {
				vvs[k] = vclock.Version{fmt.Sprintf("s%03d", k): 0}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % n
				vv := vvs[k%16]
				for s := range vv {
					vv[s] = uint64(4 + i/n)
				}
				tree.Update(ids[k], vv)
			}
		})
	}
}
