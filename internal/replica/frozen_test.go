package replica

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"mocca/internal/id"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
)

// recordingBackend is the in-memory store plus a ledger: the encoding of
// every row Exec installed, taken at the moment it was installed.
type recordingBackend struct {
	*information.Store
	t         *testing.T
	mu        sync.Mutex
	installed map[*information.Object][]byte
}

func (b *recordingBackend) Exec(id string, fn func(*information.Object) (*information.Object, error)) (*information.Object, error) {
	row, err := b.Store.Exec(id, fn)
	if row != nil {
		b.mu.Lock()
		if _, again := b.installed[row]; again {
			b.t.Errorf("row %s was stored a second time: a callback returned its argument", row.ID)
		}
		b.installed[row] = information.AppendObject(nil, row)
		b.mu.Unlock()
	}
	return row, err
}

// assertFrozen checks that no row ever installed has changed since — the
// replaced ones too, a message in flight may still hold them — and that
// every row now stored came in through Exec.
func (b *recordingBackend) assertFrozen(t *testing.T, site string) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	for row, enc := range b.installed {
		if now := information.AppendObject(nil, row); !bytes.Equal(now, enc) {
			t.Errorf("%s: installed row %s (vv %v) was edited after it was stored", site, row.ID, row.VV)
		}
	}
	b.Range(func(o *information.Object) bool {
		if _, ok := b.installed[o]; !ok {
			t.Errorf("%s: stored row %s was not installed by Exec", site, o.ID)
		}
		return true
	})
}

// spaceDigest is every row's version vector, copied out of Range.
func spaceDigest(sp *information.Space) map[string]vclock.Version {
	out := map[string]vclock.Version{}
	sp.Range(func(o *information.Object) bool {
		out[o.ID] = o.VV.Clone()
		return true
	})
	return out
}

// assertTreeMatchesStore compares the space's incremental tree with one
// rebuilt from Range, and its leaf digests with the store's digest.
func assertTreeMatchesStore(t *testing.T, site string, sp *information.Space) {
	t.Helper()
	rebuilt := information.NewDigestTree()
	sp.Range(func(o *information.Object) bool {
		rebuilt.Update(o.ID, o.VV)
		return true
	})
	if got, want := sp.Tree().Root(), rebuilt.Root(); got != want {
		t.Errorf("%s: tree root %x, rebuilt from Range %x", site, got, want)
	}
	leaves := map[string]vclock.Version{}
	for b := uint32(0); b < information.MerkleLeaves; b++ {
		sp.Tree().LeafDigestInto(leaves, b)
	}
	if !reflect.DeepEqual(leaves, spaceDigest(sp)) {
		t.Errorf("%s: leaf digests differ from the stored vectors", site)
	}
}

// vectorLedger records the encoding of every version vector a digest tree
// was seen to hold, keyed by the vector's identity, at the moment it was
// first seen. A tree keeps the vector it is given (the stored row's own), and
// leaf digests hand the same vector on, so one edited in place — by the tree,
// by whoever gave it, or by a reader of a leaf digest — re-encodes differently
// at a later look.
type vectorLedger map[uintptr]recordedVector

type recordedVector struct {
	vv  vclock.Version // held so the address cannot be reused
	enc []byte
}

// look records the vectors tree holds now and re-checks every one recorded
// so far, replaced entries' included: a digest in flight may still hold them.
func (l vectorLedger) look(t *testing.T, site string, tree *information.DigestTree) {
	t.Helper()
	leaves := map[string]vclock.Version{}
	for b := uint32(0); b < information.MerkleLeaves; b++ {
		tree.LeafDigestInto(leaves, b)
	}
	for _, vv := range leaves {
		if at := reflect.ValueOf(vv).Pointer(); at != 0 {
			if _, seen := l[at]; !seen {
				l[at] = recordedVector{vv, vv.AppendBinary(nil)}
			}
		}
	}
	for _, rec := range l {
		if now := rec.vv.AppendBinary(nil); !bytes.Equal(now, rec.enc) {
			t.Errorf("%s: a vector the tree held was edited in place: recorded %x, now %x (%v)", site, rec.enc, now, rec.vv)
		}
	}
}

// reencode sends a message through its own codec, as the network would.
func reencode[M interface{ AppendBinary([]byte) ([]byte, error) }, P interface {
	*M
	UnmarshalBinary([]byte) error
}](t *testing.T, msg M) M {
	t.Helper()
	body, err := msg.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out M
	if err := P(&out).UnmarshalBinary(body); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoredRowsStayFrozen drives every way a row enters, leaves or is
// read on the replica plane — puts, updates, a concurrent conflict, a
// pushed batch, a scoped sync, a FetchWire/ApplyWire round — and then
// serves rows on one goroutine while another updates the same ids. Rows
// are shared, not copied, across the information→replica seam, so any
// reader, subscriber or encoder that edits one shows up here as changed
// bytes, a diverged tree, or a report from the race detector.
func TestStoredRowsStayFrozen(t *testing.T) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(7))
	registry := information.NewSchemaRegistry()
	if err := registry.Register(information.Schema{Name: "doc", Fields: []information.Field{
		{Name: "title", Type: information.FieldText, Required: true},
		{Name: "body", Type: information.FieldText},
	}}); err != nil {
		t.Fatal(err)
	}
	ids := id.New()
	var (
		backends []*recordingBackend
		spaces   []*information.Space
		reps     []*Replicator
	)
	for _, site := range []string{"s0", "s1"} {
		b := &recordingBackend{Store: information.NewStore(), t: t, installed: map[*information.Object][]byte{}}
		sp := information.NewSpace(registry, nil, clk,
			information.WithSite(site), information.WithIDs(ids), information.WithBackend(b))
		// A subscriber that reads the whole row it is lent.
		sp.Subscribe("", func(ev information.Event) { _ = information.AppendObject(nil, ev.Object) })
		ep := rpc.NewEndpoint(net.MustAddNode(netsim.Address("repl-"+site)), clk, rpc.WithIDs(ids))
		backends, spaces, reps = append(backends, b), append(spaces, sp), append(reps, New(ep, clk, sp))
	}
	reps[0].AddPeer(reps[1].Addr())
	reps[1].AddPeer(reps[0].Addr())
	vectors := []vectorLedger{{}, {}}
	lookAtTrees := func() {
		t.Helper()
		for i, site := range []string{"s0", "s1"} {
			vectors[i].look(t, site, spaces[i].Tree())
		}
	}
	put := func(site int, title string) *information.Object {
		t.Helper()
		obj, err := spaces[site].Put("prinz", "doc", map[string]string{"title": title, "body": "text"})
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}
	update := func(site int, obj *information.Object, title string) *information.Object {
		t.Helper()
		cur, err := spaces[site].Get("prinz", obj.ID)
		if err != nil {
			t.Fatal(err)
		}
		next, err := spaces[site].Update("prinz", obj.ID, cur.Version, map[string]string{"title": title})
		if err != nil {
			t.Fatal(err)
		}
		return next
	}

	// A scoped sync by hand, before any round ran: s1 asks s0 for the
	// buckets of rows it has never seen and adopts the borrowed deltas.
	var rows []*information.Object
	var scope []uint32
	for i := 0; i < 24; i++ {
		rows = append(rows, put(0, fmt.Sprintf("doc %d", i)))
		scope = append(scope, information.MerkleBucket(rows[i].ID))
	}
	resp := reencode(t, reps[0].serveScopedSync(syncReq{Scope: scope}))
	if applied := reps[1].applyRows(resp.Deltas); applied != len(rows) || reps[1].Stats().ApplyFailures != 0 {
		t.Fatalf("scoped sync applied %d of %d rows, stats %+v", applied, len(rows), reps[1].Stats())
	}

	lookAtTrees()

	// Rounds: rows written at s1 reach s0 as a pushed batch or a pull.
	for i := 0; i < 8; i++ {
		rows = append(rows, put(1, fmt.Sprintf("memo %d", i)))
	}
	for _, r := range reps {
		r.AutoSync(time.Second)
		r.SyncNow()
	}
	clk.RunUntilIdle()

	lookAtTrees()

	// Updates, and one id written at both sites before either syncs.
	for i := 0; i < 8; i++ {
		update(0, rows[i], fmt.Sprintf("doc %d, second edition", i))
	}
	update(0, rows[8], "edited at s0")
	update(1, rows[8], "edited at s1")
	clk.RunUntilIdle()
	if c := reps[0].Stats().Conflicts + reps[1].Stats().Conflicts; c == 0 {
		t.Fatal("the concurrent update resolved no conflict")
	}

	lookAtTrees()

	// A rumor fetch by hand: s0's newest rows, through the wire, into s1.
	var fetchIDs []string
	for i := 9; i < 16; i++ {
		fetchIDs = append(fetchIDs, update(0, rows[i], "rumored").ID)
	}
	fetched := reencode(t, pushReq{Objects: reps[0].FetchWire(nil, fetchIDs)})
	if applied := reps[1].ApplyWire(fetched.Objects); applied != len(fetchIDs) {
		t.Fatalf("ApplyWire applied %d of %d fetched rows", applied, len(fetchIDs))
	}
	clk.RunUntilIdle()

	// One goroutine updates at s0 the ids the other is serving from s0.
	var allIDs []string
	for _, o := range rows {
		allIDs = append(allIDs, o.ID)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			objID := allIDs[i%len(allIDs)]
			cur, err := spaces[0].Get("prinz", objID)
			if err == nil {
				_, err = spaces[0].Update("prinz", objID, cur.Version, map[string]string{"title": fmt.Sprintf("hot %d", i)})
			}
			// A round on the serving goroutine may merge s1's state
			// between the read and the write.
			if err != nil && !errors.Is(err, information.ErrConflict) {
				t.Errorf("concurrent update of %s: %v", objID, err)
			}
		}
	}()
	emptyRoot := rootFrame(information.NewDigestTree())
	for serving, i := true, 0; serving; i++ {
		select {
		case <-done:
			serving = false
		default:
		}
		reencode(t, reps[0].serveScopedSync(syncReq{Scope: scope}))
		reencode(t, pushReq{Objects: reps[0].FetchWire(nil, allIDs)})
		opening, err := reps[0].serveDigest("repl-reader", digestReq{Frames: emptyRoot, Marks: wholeMarks(marksOf(nil))})
		if err != nil {
			t.Fatal(err)
		}
		reencode(t, opening)
		reps[0].DotID("s0", uint64(1+i%len(allIDs)))
		if i%4 == 0 {
			update(1, rows[24+i/4%8], fmt.Sprintf("from s1, %d", i))
			clk.RunUntilIdle()
			lookAtTrees() // while the other goroutine replaces entries at s0
		}
	}
	for _, r := range reps {
		r.SyncNow()
	}
	clk.RunUntilIdle()

	lookAtTrees()
	for i, site := range []string{"s0", "s1"} {
		if len(vectors[i]) <= len(rows) {
			t.Errorf("%s: the ledger saw %d vectors over %d rows; the updates' vectors are missing", site, len(vectors[i]), len(rows))
		}
		backends[i].assertFrozen(t, site)
		assertTreeMatchesStore(t, site, spaces[i])
	}
	if !reflect.DeepEqual(spaceDigest(spaces[0]), spaceDigest(spaces[1])) {
		t.Error("the replicas did not converge")
	}
	if got, want := len(spaceDigest(spaces[0])), len(rows); got != want {
		t.Errorf("s0 holds %d rows, want %d", got, want)
	}
}
