package information

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"mocca/internal/vclock"
	"mocca/internal/wire"
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
	// Mutate some, and merge a third site into others.
	for i := 0; i < 500; i += 7 {
		id := fmt.Sprintf("info-%04d", i)
		vv := state[id].Clone().Tick("s1")
		tree.Update(id, vv)
		state[id] = vv
	}
	for i := 0; i < 500; i += 13 {
		id := fmt.Sprintf("info-%04d", i)
		vv := state[id].Merge(vclock.Version{"s2": uint64(i%5 + 1)})
		tree.Update(id, vv)
		state[id] = vv
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
	if tr.Root() == NewDigestTree().Root() {
		t.Fatal("a tree holding a row agrees with an empty one")
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

	// The marks are the maxima of what the tree holds: an entry's vector
	// only merges, so its counters never fall.
	tr.Update("b", vclock.Version{"s0": 4, "s1": 5})
	if got := tr.HighWater(); got["s0"] != 4 || got["s1"] != 5 {
		t.Fatalf("hw after a merge = %v, want s0:4 s1:5", got)
	}
	if got := tr.NewerThanHW(map[string]uint64{"s0": 3, "s1": 5}); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("NewerThanHW = %v, want [b]", got)
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
		if got := tree.NewerThanMarks(marksSection(hw)); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: NewerThanMarks(%v) = %v, the scan says %v", step, hw, got, want)
		}
		if got, want := tree.MarksAhead(marksSection(hw)), marksAhead(tree, hw); got != want {
			t.Fatalf("step %d: MarksAhead(%v) = %v, want %v", step, hw, got, want)
		}
	}
	dots := scanDots(tree)
	for site, top := range tree.HighWater() {
		for c := uint64(0); c <= top+1; c++ {
			id, ok := tree.DotID(site, c)
			if wantID, wantOK := dots[dotAt{site, c}]; id != wantID || ok != wantOK {
				t.Fatalf("step %d: DotID(%s, %d) = %q, %v; the scan says %q, %v", step, site, c, id, ok, wantID, wantOK)
			}
		}
	}
	if id, ok := tree.DotID("nowhere", 1); ok || id != "" {
		t.Fatalf("step %d: DotID of a site the tree never saw = %q, %v", step, id, ok)
	}
}

type dotAt struct {
	site    string
	counter uint64
}

// scanDots is the definition DotID answers to: for every non-zero entry of
// every vector of every bucket, the least id whose vector holds it.
func scanDots(t *DigestTree) map[dotAt]string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := map[dotAt]string{}
	for b := range t.buckets {
		for _, e := range t.buckets[b] {
			for s, c := range e.vv {
				if least, ok := out[dotAt{s, c}]; c != 0 && (!ok || e.id < least) {
					out[dotAt{s, c}] = e.id
				}
			}
		}
	}
	return out
}

// marksSection encodes hw in AppendMarks' layout: a count, then per site
// in name order its name and its mark.
func marksSection(hw map[string]uint64) []byte {
	b := wire.AppendUvarint(nil, uint64(len(hw)))
	for _, site := range slices.Sorted(maps.Keys(hw)) {
		b = wire.AppendUvarint(wire.AppendString(b, site), hw[site])
	}
	return b
}

// marksAhead is the definition MarksAhead answers to.
func marksAhead(t *DigestTree, hw map[string]uint64) bool {
	for s, mark := range hw {
		if mark > t.Top(s) {
			return true
		}
	}
	return false
}

// TestMarksSection: the tree writes its marks as the section a map of them
// encodes to, SkipMarks takes exactly that section off the front of a body
// and refuses one whose names do not rise, and the section is read in
// place.
func TestMarksSection(t *testing.T) {
	tree := NewDigestTree()
	tree.Update("a", vclock.Version{"s1": 3})
	tree.Update("b", vclock.Version{"s0": 1, "s1": 5})
	tree.Update("c", vclock.Version{"köln": 2})
	own := tree.AppendMarks(nil)
	if want := marksSection(tree.HighWater()); !bytes.Equal(own, want) {
		t.Fatalf("AppendMarks = %x, the marks encode to %x", own, want)
	}
	section, rest, err := SkipMarks(append(slices.Clone(own), 0xEE))
	if err != nil || !bytes.Equal(section, own) || !bytes.Equal(rest, []byte{0xEE}) {
		t.Fatalf("SkipMarks = %x, %x, %v", section, rest, err)
	}
	entry := func(name string, mark uint64) []byte {
		return wire.AppendUvarint(wire.AppendString(nil, name), mark)
	}
	for name, bad := range map[string][]byte{
		"out of order": slices.Concat([]byte{2}, entry("s1", 1), entry("s0", 1)),
		"duplicate":    slices.Concat([]byte{2}, entry("s0", 1), entry("s0", 2)),
		"truncated":    slices.Concat([]byte{2}, entry("s0", 1)),
		"huge count":   wire.AppendUvarint(nil, 1<<60),
		"empty":        nil,
	} {
		if _, _, err := SkipMarks(bad); err == nil {
			t.Errorf("%s: SkipMarks accepted %x", name, bad)
		}
	}
	if tree.MarksAhead(own) || len(tree.NewerThanMarks(own)) != 0 {
		t.Fatal("the tree's own marks are ahead of it, or name rows it lacks")
	}
	if !tree.MarksAhead(marksSection(map[string]uint64{"nowhere": 1})) || tree.MarksAhead(marksSection(map[string]uint64{"nowhere": 0})) {
		t.Fatal("a mark for a site the tree never saw is ahead exactly when it is above 0")
	}
	if got := tree.NewerThanMarks(marksSection(map[string]uint64{"s1": 4, "köln": 2})); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("NewerThanMarks = %v, want [b]", got)
	}

	if raceEnabled {
		t.Skip("allocation counts under -race")
	}
	// Neither side of an exchange builds a map or a string per site.
	buf := make([]byte, 0, 64)
	for name, op := range map[string]func(){
		"AppendMarks":    func() { buf = tree.AppendMarks(buf[:0]) },
		"NewerThanMarks": func() { _ = tree.NewerThanMarks(own) },
		"MarksAhead":     func() { _ = tree.MarksAhead(own) },
		"SkipMarks":      func() { _, _, _ = SkipMarks(own) },
	} {
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("%s with nothing past the marks: %.0f allocations, want 0", name, n)
		}
	}
}

// TestNewerThanHWMatchesScan drives a tree through fresh rows, dominating,
// dominated, concurrent and merged vectors, with a reader beside it, and
// holds every answer to a scan of the entries. A history whose vectors only
// merge, as a Space's do, leaves marks that are exactly the maxima of what
// the tree holds; a concurrent vector that replaces an entry may leave a
// mark above them, never below.
func TestNewerThanHWMatchesScan(t *testing.T) {
	sites := []string{"s0", "s1", "s2", "s3"}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mergeOnly := seed > 3
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
		// site's index has to split a chunk, and updates past s0's first
		// counter move entries out of it again.
		const steps = 800
		chunks := 0
		for step := 0; step < steps; step++ {
			id := fmt.Sprintf("obj-%03d", rng.Intn(400))
			cur, held := model[id]
			var vv vclock.Version
			switch op := rng.Intn(10); {
			case !held: // fresh, sometimes born with several sites
				vv = vclock.NewVersion(sites[0])
				for rng.Intn(3) == 0 {
					vv[sites[rng.Intn(len(sites))]] = uint64(1 + rng.Intn(4))
				}
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
				if mergeOnly {
					vv = cur.Merge(vv)
				}
			default: // merged with another replica's vector
				vv = cur.Merge(vclock.Version{sites[rng.Intn(len(sites))]: uint64(1 + rng.Intn(6))})
			}
			tree.Update(id, vv)
			if o := cur.Compare(vv); !held || (o != vclock.After && o != vclock.Equal) {
				model[id] = vv
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
		// answers. Its marks are the maxima over those entries.
		rebuilt := rebuildTree(model)
		if rebuilt.Root() != tree.Root() {
			t.Fatalf("seed %d: rebuilt root differs", seed)
		}
		own := tree.HighWater()
		if maxima := rebuilt.HighWater(); mergeOnly && !reflect.DeepEqual(own, maxima) {
			t.Fatalf("seed %d: marks %v after a history that only merged, the held maxima %v", seed, own, maxima)
		}
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
// entry hashes are pinned to the values hash/fnv gives them over the id and
// the vector's canonical bytes (vclock.AppendBinary: the uvarint layout).
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
		{"", nil, 805, 0x08328807b4eb6fed},
		{"", vclock.Version{}, 805, 0x08328807b4eb6fed},
		{"a", vclock.Version{"s0": 1}, 3212, 0x84e3daee130831ff},
		{"info-0042", vclock.Version{"s000": 1}, 2338, 0xfa62a0b446095b63},
		{"info-0042", vclock.Version{"s000": 2}, 2338, 0xfa62a1b446095d16},
		{"info-0042", vclock.Version{"s000": 1, "s001": 1}, 2338, 0xffff46e8c20b4f91},
		{"obj/with/slashes", vclock.Version{"zeta": 1<<64 - 1, "alpha": 256, "mid": 65536}, 3229, 0x9db6398cd6fc7170},
		{"héllo-wörld-✓", vclock.Version{"site-é": 7}, 3647, 0x4d5ad7eb903ed74a},
		// Past entryHash's stack buffer.
		{"a-rather-long-identifier-that-exceeds-thirty-two-bytes-of-stack-buffer", eighteen, 450, 0xd803f2851c1cddda},
		{"x", vclock.Version{"": 0}, 1799, 0xa254862489a3304c},
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
	if got := tree.Root(); got != 0x1c430b4a33e22caf {
		t.Fatalf("root over the table = %#016x", got)
	}
}

func TestSpaceTreeFollowsCommitsAndRecovery(t *testing.T) {
	registry := NewSchemaRegistry()
	if err := registry.Register(Schema{Name: "doc", Fields: []Field{
		{Name: "title", Type: FieldText, Required: true},
		{Name: "body", Type: FieldText},
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
