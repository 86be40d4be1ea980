package logstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mocca/internal/information"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

var (
	t0 = time.Unix(0, 700000000000000000).UTC()
	t1 = t0.Add(time.Minute)
)

// put stores one fully-specified row through the backend's Exec primitive.
func put(t testing.TB, st *Store, id string, vv vclock.Version, site string, fields map[string]string) {
	t.Helper()
	_, err := st.Exec(id, func(*information.Object) (*information.Object, error) {
		return &information.Object{
			ID: id, Schema: "doc", Owner: "ada", Fields: fields,
			Version: vv.Sum(), VV: vv, Site: site, Created: t0, Updated: t1,
		}, nil
	})
	if err != nil {
		t.Fatalf("put %s: %v", id, err)
	}
}

// seedStore writes n seeded, reproducible rows (multi-site version
// vectors) plus a chain of relations, and returns the row ids.
func seedStore(t testing.TB, st *Store, n int, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("obj-%03d", i)
		vv := vclock.Version{}
		for _, site := range []string{"gmd", "upc", "nott"} {
			if c := rng.Intn(4); c > 0 {
				vv[site] = uint64(c)
			}
		}
		if len(vv) == 0 {
			vv = vclock.NewVersion("gmd")
		}
		put(t, st, ids[i], vv, "gmd", map[string]string{
			"title": fmt.Sprintf("row %d", i),
			"body":  fmt.Sprintf("%x", rng.Uint64()),
		})
	}
	for i := 1; i < n; i++ {
		if err := st.Relate(ids[i], information.RelDependsOn, ids[i-1]); err != nil {
			t.Fatalf("relate: %v", err)
		}
	}
	return ids
}

// digestBinary renders a digest as canonical per-object bytes, for
// byte-for-byte comparison of version vectors across recovery.
func digestBinary(b information.Backend) map[string][]byte {
	out := make(map[string][]byte)
	for id, vv := range b.Digest() {
		out[id] = vv.AppendBinary(nil)
	}
	return out
}

// reopen closes st and opens the directory again.
func reopen(t testing.TB, st *Store, opts ...Option) *Store {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re, err := Open(st.Dir(), opts...)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return re
}

func TestRecoveryRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ids := seedStore(t, st, 25, 1992)
	before := st.Snapshot(nil)
	beforeDigest := digestBinary(st)

	re := reopen(t, st)
	defer re.Close()
	if re.Len() != len(ids) {
		t.Fatalf("recovered %d objects, want %d", re.Len(), len(ids))
	}
	after := re.Snapshot(nil)
	sortObjs := func(objs []*information.Object) {
		for i := range objs {
			for j := i + 1; j < len(objs); j++ {
				if objs[j].ID < objs[i].ID {
					objs[i], objs[j] = objs[j], objs[i]
				}
			}
		}
	}
	sortObjs(before)
	sortObjs(after)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("recovered rows differ from pre-crash rows")
	}
	// Version vectors byte-for-byte.
	afterDigest := digestBinary(re)
	if len(afterDigest) != len(beforeDigest) {
		t.Fatalf("digest size %d, want %d", len(afterDigest), len(beforeDigest))
	}
	for id, b := range beforeDigest {
		if !bytes.Equal(afterDigest[id], b) {
			t.Fatalf("object %s: version vector changed across recovery", id)
		}
	}
	// Relationship graph survived.
	if got := re.Related(ids[5], information.RelDependsOn); len(got) != 1 || got[0] != ids[4] {
		t.Fatalf("relations lost: %v", got)
	}
	if got := re.Closure(ids[len(ids)-1], information.RelDependsOn); len(got) != len(ids)-1 {
		t.Fatalf("closure = %d edges, want %d", len(got), len(ids)-1)
	}
	if s := re.Stats(); s.RecoveredObjects != len(ids) {
		t.Fatalf("RecoveredObjects = %d, want %d", s.RecoveredObjects, len(ids))
	}
}

// TestRecoveryIsReproducible runs the same seeded workload twice and
// demands identical recovered state.
func TestRecoveryIsReproducible(t *testing.T) {
	run := func() map[string][]byte {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		seedStore(t, st, 40, 4711)
		re := reopen(t, st)
		defer re.Close()
		return digestBinary(re)
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("seeded recovery not reproducible")
	}
}

func TestSpaceOverLogstore(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := information.NewSchemaRegistry()
	if err := reg.Register(information.Schema{Name: "note", Fields: []information.Field{
		{Name: "text", Type: information.FieldText, Required: true},
	}}); err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewSimulated(t0)
	sp := information.NewSpace(reg, nil, clk,
		information.WithSite("gmd"), information.WithBackend(st))
	obj, err := sp.Put("ada", "note", map[string]string{"text": "v1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Update("ada", obj.ID, obj.Version, map[string]string{"text": "v2"}); err != nil {
		t.Fatal(err)
	}
	want := digestBinary(st)

	re := reopen(t, st)
	defer re.Close()
	sp2 := information.NewSpace(reg, nil, clk,
		information.WithSite("gmd"), information.WithBackend(re))
	got, err := sp2.Get("ada", obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fields["text"] != "v2" || got.Version != 2 || got.Site != "gmd" {
		t.Fatalf("recovered object %+v", got)
	}
	if !reflect.DeepEqual(digestBinary(re), want) {
		t.Fatal("space digest changed across recovery")
	}
}

func TestRecoveryTruncatedTail(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st, 10, 7)
	walPath := filepath.Join(st.Dir(), walName)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record: chop a few bytes off the file.
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	re, err := Open(st.Dir())
	if err != nil {
		t.Fatalf("recovery over torn tail: %v", err)
	}
	defer re.Close()
	// The torn record was a relation (relations are appended last); all 10
	// objects and all-but-one relation survive.
	if re.Len() != 10 {
		t.Fatalf("recovered %d objects, want 10", re.Len())
	}
	if s := re.Stats(); s.DiscardedBytes == 0 || s.RecoveredRelations != 8 {
		t.Fatalf("stats after torn tail: %+v", s)
	}
	// The log is clean again: appends extend it and a further recovery
	// sees them.
	put(t, re, "post-crash", vclock.NewVersion("gmd"), "gmd", map[string]string{"title": "new"})
	re2 := reopen(t, re)
	defer re2.Close()
	if re2.Len() != 11 {
		t.Fatalf("post-truncation append lost: %d objects", re2.Len())
	}
	if s := re2.Stats(); s.DiscardedBytes != 0 {
		t.Fatalf("second recovery discarded %d bytes from a clean log", s.DiscardedBytes)
	}
}

func TestRecoveryCorruptTailCRC(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put(t, st, "a", vclock.NewVersion("gmd"), "gmd", map[string]string{"title": "keep"})
	put(t, st, "b", vclock.NewVersion("gmd"), "gmd", map[string]string{"title": "rot"})
	walPath := filepath.Join(st.Dir(), walName)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the last record's payload.
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(st.Dir())
	if err != nil {
		t.Fatalf("recovery over corrupt tail: %v", err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("recovered %d objects, want 1 (corrupt record dropped)", re.Len())
	}
	if _, ok := re.Get("a"); !ok {
		t.Fatal("intact prefix lost")
	}
	if s := re.Stats(); s.DiscardedBytes == 0 {
		t.Fatalf("corruption not accounted: %+v", s)
	}
}

func TestRecoveryMidCompactionCrash(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithCompactEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st, 12, 99)
	// Save the pre-compaction WAL: this is what the log looks like if a
	// crash hits after the snapshot rename but before the truncation.
	walPath := filepath.Join(dir, walName)
	stale, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	want := digestBinary(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash window 1: snapshot renamed, WAL not yet truncated. Replay must
	// skip every covered record instead of double-applying or regressing.
	if err := os.WriteFile(walPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(digestBinary(re), want) {
		t.Fatal("state diverged when replaying a snapshot-covered WAL")
	}
	if s := re.Stats(); s.ReplayedRecords != 0 || s.SkippedRecords == 0 {
		t.Fatalf("covered records not skipped: %+v", s)
	}
	// New writes sequence past the snapshot and survive another recovery.
	put(t, re, "after", vclock.NewVersion("upc"), "upc", map[string]string{"title": "fresh"})
	re2 := reopen(t, re)
	if re2.Len() != 13 {
		t.Fatalf("write after covered replay lost: %d objects", re2.Len())
	}
	if err := re2.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash window 2: a torn snapshot.tmp left behind is discarded.
	if err := os.WriteFile(filepath.Join(dir, snapTmpName), []byte("torn snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	re3, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery with leftover snapshot.tmp: %v", err)
	}
	defer re3.Close()
	if re3.Len() != 13 {
		t.Fatalf("leftover tmp corrupted recovery: %d objects", re3.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, snapTmpName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("snapshot.tmp not cleaned up")
	}
}

func TestAutomaticCompaction(t *testing.T) {
	st, err := Open(t.TempDir(), WithCompactEvery(10))
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st, 25, 3)
	if s := st.Stats(); s.Compactions == 0 {
		t.Fatalf("no automatic compaction after %d appends", s.Appends)
	}
	// Everything is still there after the WAL was truncated underneath.
	re := reopen(t, st)
	defer re.Close()
	if re.Len() != 25 {
		t.Fatalf("recovered %d objects, want 25", re.Len())
	}
	if s := re.Stats(); s.RecoveredRelations != 24 {
		t.Fatalf("recovered %d relations, want 24", s.RecoveredRelations)
	}
}

func TestClosedStoreRejectsMutations(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put(t, st, "a", vclock.NewVersion("gmd"), "gmd", nil)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec("b", func(*information.Object) (*information.Object, error) {
		return &information.Object{ID: "b"}, nil
	}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Exec after Close = %v, want ErrClosed", err)
	}
	if err := st.Relate("a", information.RelDependsOn, "a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Relate after Close = %v, want ErrClosed", err)
	}
	// Reads keep serving from memory.
	if _, ok := st.Get("a"); !ok {
		t.Fatal("read after Close failed")
	}
}

// An oversize field value must be rejected up front: accepting it would
// acknowledge a write that recovery later discards (the decode-side
// string limit would treat it, and every later record, as a torn tail).
func TestOversizeFieldRejectedNotDestroyedLater(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put(t, st, "before", vclock.NewVersion("gmd"), "gmd", map[string]string{"title": "ok"})
	huge := strings.Repeat("x", 1<<16)
	_, err = st.Exec("big", func(*information.Object) (*information.Object, error) {
		return &information.Object{ID: "big", Schema: "doc", Owner: "ada",
			Fields: map[string]string{"body": huge},
			VV:     vclock.NewVersion("gmd"), Version: 1, Site: "gmd", Created: t0, Updated: t1}, nil
	})
	if !errors.Is(err, wire.ErrOversize) {
		t.Fatalf("oversize field: err = %v, want wire.ErrOversize", err)
	}
	if _, ok := st.Get("big"); ok {
		t.Fatal("rejected row is live in memory")
	}
	put(t, st, "after", vclock.NewVersion("gmd"), "gmd", map[string]string{"title": "ok too"})
	re := reopen(t, st)
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("recovered %d objects, want 2 (before + after)", re.Len())
	}
	if s := re.Stats(); s.DiscardedBytes != 0 {
		t.Fatalf("clean log discarded %d bytes", s.DiscardedBytes)
	}
	if err := re.Relate("before", information.RelKind(strings.Repeat("k", 1<<16)), "after"); !errors.Is(err, wire.ErrOversize) {
		t.Fatalf("oversize relation kind: err = %v, want wire.ErrOversize", err)
	}
}

// A WAL append failure must fail the mutation — Exec, Relate and Remove
// alike — without committing it to memory: a row served from memory but
// absent from the log would vanish on recovery while peers replicated it,
// and an eviction or an edge applied but not logged would come undone.
func TestAppendFailureDoesNotCommitToMemory(t *testing.T) {
	dep := information.RelDependsOn
	view := func(st *Store) string {
		var b strings.Builder
		fmt.Fprintf(&b, "len=%d", st.Len())
		for _, id := range []string{"a", "b", "c", "doomed"} {
			_, ok := st.Get(id)
			fmt.Fprintf(&b, " %s:%v%v", id, ok, st.Related(id, dep))
		}
		return b.String()
	}
	cases := map[string]func(st *Store) error{
		"exec": func(st *Store) error {
			_, err := st.Exec("doomed", func(*information.Object) (*information.Object, error) {
				return &information.Object{ID: "doomed", Schema: "doc", Owner: "ada",
					VV: vclock.NewVersion("gmd"), Version: 1, Site: "gmd", Created: t0, Updated: t1}, nil
			})
			return err
		},
		"relate": func(st *Store) error { return st.Relate("b", dep, "c") },
		"remove": func(st *Store) error {
			_, err := st.Remove("b") // would strip a -> b with it
			return err
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"a", "b", "c"} {
				put(t, st, id, vclock.NewVersion("gmd"), "gmd", nil)
			}
			if err := st.Relate("a", dep, "b"); err != nil {
				t.Fatal(err)
			}
			before := view(st)
			st.wal.Close() // simulate the disk going away beneath the store
			if err := mutate(st); err == nil {
				t.Fatal("mutation over a dead WAL reported success")
			}
			if got := view(st); got != before {
				t.Fatalf("failed mutation is live in memory:\n got %s\nwant %s", got, before)
			}
			st.Close() // errs on the dead handle; the directory is what matters
			re, err := Open(st.Dir())
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := view(re); got != before {
				t.Fatalf("recovered state differs from the pre-call state:\n got %s\nwant %s", got, before)
			}
		})
	}
}

// A relation the graph rejects (cycle) must not reach the log: nothing is
// appended for it, so there is nothing to take back and nothing for a
// replay to trip over.
func TestRejectedRelationRolledOffLog(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put(t, st, "a", vclock.NewVersion("gmd"), "gmd", nil)
	put(t, st, "b", vclock.NewVersion("gmd"), "gmd", nil)
	if err := st.Relate("a", information.RelDependsOn, "b"); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(st.Dir(), walName)
	logged := func() (size, appends int64) {
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size(), st.Stats().Appends
	}
	sizeBefore, appendsBefore := logged()
	if err := st.Relate("b", information.RelDependsOn, "a"); err == nil {
		t.Fatal("cycle accepted")
	}
	if size, appends := logged(); size != sizeBefore || appends != appendsBefore {
		t.Fatalf("refused edge touched the log: %d bytes / %d appends, was %d / %d",
			size, appends, sizeBefore, appendsBefore)
	}
	re := reopen(t, st)
	defer re.Close()
	if s := re.Stats(); s.RecoveredRelations != 1 || s.DiscardedBytes != 0 {
		t.Fatalf("refused edge leaked into the log: %+v", s)
	}
}

// A refused relation record stuck in the log (a store from before Relate
// validated first, crashed between its append and its rollback truncate)
// must not brick recovery: replay skips it and keeps applying later
// records.
func TestReplaySkipsRefusedRelation(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put(t, st, "a", vclock.NewVersion("gmd"), "gmd", nil)
	put(t, st, "b", vclock.NewVersion("gmd"), "gmd", nil)
	if err := st.Relate("a", information.RelDependsOn, "b"); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(st.Dir(), walName)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant a CRC-valid record for an edge the graph refuses (cycle),
	// followed by a good object record that must still be applied.
	payload := appendWALPayload(nil, recRelate, 1000)
	payload = appendRelation(payload, information.Relation{From: "b", Kind: information.RelDependsOn, To: "a"})
	frame, err := wire.AppendRecord(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	payload = appendWALPayload(nil, recExec, 1001)
	payload = information.AppendObject(payload, &information.Object{ID: "c", Schema: "doc", Owner: "ada",
		VV: vclock.NewVersion("upc"), Version: 1, Site: "upc", Created: t0, Updated: t1})
	if frame, err = wire.AppendRecord(frame, payload); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(st.Dir())
	if err != nil {
		t.Fatalf("refused relation record bricked recovery: %v", err)
	}
	defer re.Close()
	if re.Len() != 3 {
		t.Fatalf("recovered %d objects, want 3 (record after the refused edge applied)", re.Len())
	}
	if got := re.Related("b", information.RelDependsOn); len(got) != 0 {
		t.Fatalf("refused edge materialised: %v", got)
	}
	if s := re.Stats(); s.RecoveredRelations != 1 || s.SkippedRecords != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// A failed durable Update must not leave a phantom write in memory: the
// engine's Update path mutates the row it is handed in place, so the
// backend must isolate the live row from the callback until the WAL
// append succeeds.
func TestFailedUpdateLeavesLiveRowUntouched(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := information.NewSchemaRegistry()
	if err := reg.Register(information.Schema{Name: "note", Fields: []information.Field{
		{Name: "text", Type: information.FieldText, Required: true},
	}}); err != nil {
		t.Fatal(err)
	}
	sp := information.NewSpace(reg, nil, vclock.NewSimulated(t0),
		information.WithSite("gmd"), information.WithBackend(st))
	obj, err := sp.Put("ada", "note", map[string]string{"text": "v1"})
	if err != nil {
		t.Fatal(err)
	}

	// Oversize update: rejected by the durable backend mid-Exec, after the
	// engine has already mutated the row it was handed.
	huge := strings.Repeat("x", 1<<16)
	if _, err := sp.Update("ada", obj.ID, obj.Version, map[string]string{"text": huge}); !errors.Is(err, wire.ErrOversize) {
		t.Fatalf("oversize update: %v, want wire.ErrOversize", err)
	}
	got, err := sp.Get("ada", obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 || got.Fields["text"] != "v1" || got.VV.Counter("gmd") != 1 {
		t.Fatalf("failed update leaked into memory: v%d %q vv=%s", got.Version, got.Fields["text"], got.VV)
	}

	// Same with the WAL dead: the update fails and the row stays at v1.
	st.wal.Close()
	if _, err := sp.Update("ada", obj.ID, obj.Version, map[string]string{"text": "v2"}); err == nil {
		t.Fatal("update over dead WAL reported success")
	}
	if got, _ := sp.Get("ada", obj.ID); got.Version != 1 || got.Fields["text"] != "v1" {
		t.Fatalf("failed update leaked into memory: v%d %q", got.Version, got.Fields["text"])
	}
}

// TestOpensStoreWrittenByParent opens a directory written by the commit
// before the store had one write path (testdata/parent-store: six rows and
// four edges flushed to a segment and a manifest, then a WAL tail holding
// an overwrite, a new row, an edge, the sequence gap a rolled-back refused
// edge left, and a removal): no record kind, framing, manifest field or
// file name moved.
func TestOpensStoreWrittenByParent(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "parent-store"))); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := st.Stats()
	if s.Segments != 1 || s.ReplayedRecords != 4 || s.SkippedRecords != 0 || s.DiscardedBytes != 0 ||
		s.RecoveredObjects != 6 || s.RecoveredRelations != 3 {
		t.Fatalf("recovery stats: %+v", s)
	}
	var got []string
	st.Range(func(o *information.Object) bool {
		got = append(got, o.ID+"="+o.Fields["title"]+"@"+o.VV.String())
		return true
	})
	want := []string{
		"obj-000=row 0@" + vclock.Version{"gmd": 1, "upc": 0}.String(),
		"obj-001=row 1, revised@" + vclock.Version{"gmd": 2, "upc": 1}.String(),
		"obj-003=row 3@" + vclock.Version{"gmd": 1, "upc": 3}.String(),
		"obj-004=row 4@" + vclock.Version{"gmd": 1, "upc": 4}.String(),
		"obj-005=row 5@" + vclock.Version{"gmd": 1, "upc": 5}.String(),
		"obj-006=row 6@" + vclock.Version{"nott": 3}.String(),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows:\n got %q\nwant %q", got, want)
	}
	dep, part := information.RelDependsOn, information.RelComposedOf
	wantRels := []information.Relation{
		{From: "obj-001", Kind: dep, To: "obj-000"},
		{From: "obj-004", Kind: part, To: "obj-005"},
		{From: "obj-006", Kind: dep, To: "obj-000"},
	}
	if rels := st.mem.Relations(); !reflect.DeepEqual(rels, wantRels) {
		t.Fatalf("relations = %v, want %v (obj-002's two edges went with it)", rels, wantRels)
	}
	// The recovered store takes writes where the parent's log left off.
	put(t, st, "obj-002", vclock.NewVersion("gmd"), "gmd", map[string]string{"title": "back"})
	re := reopen(t, st)
	defer re.Close()
	if obj, ok := re.Get("obj-002"); !ok || obj.Fields["title"] != "back" || re.Len() != 7 {
		t.Fatalf("write after recovery: %v %v, len %d", obj, ok, re.Len())
	}
}

// TestRemoveDurable: an evicted row stays gone across recovery, with the
// edges that touched it stripped, whether or not a snapshot intervenes.
func TestRemoveDurable(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot=%v", snapshot), func(t *testing.T) {
			st, err := Open(t.TempDir(), WithCompactEvery(0))
			if err != nil {
				t.Fatal(err)
			}
			ids := seedStore(t, st, 8, 42)
			removed, err := st.Remove(ids[3])
			if err != nil || removed == nil || removed.ID != ids[3] {
				t.Fatalf("remove = %v, %v", removed, err)
			}
			if again, err := st.Remove(ids[3]); err != nil || again != nil {
				t.Fatalf("second remove = %v, %v", again, err)
			}
			if st.Len() != 7 {
				t.Fatalf("len = %d", st.Len())
			}
			// The dependency chain crossed ids[3]; edges touching it are gone.
			if deps := st.Related(ids[4], information.RelDependsOn); len(deps) != 0 {
				t.Fatalf("dangling edge from %s: %v", ids[4], deps)
			}
			if snapshot {
				if err := st.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			re := reopen(t, st)
			defer re.Close()
			if re.Len() != 7 {
				t.Fatalf("recovered len = %d", re.Len())
			}
			if _, ok := re.Get(ids[3]); ok {
				t.Fatal("removed row resurrected by recovery")
			}
			if deps := re.Related(ids[4], information.RelDependsOn); len(deps) != 0 {
				t.Fatalf("recovered dangling edge: %v", deps)
			}
		})
	}
}

// TestConcurrentAppendsUnderFsync commits from many goroutines with a sync
// before every acknowledgement, and verifies every acknowledged write is
// durable after recovery and every fsync — the per-append ones, Sync's and
// Close's — is counted.
func TestConcurrentAppendsUnderFsync(t *testing.T) {
	const writers, perWriter = 8, 25
	st, err := Open(t.TempDir(), WithFsync(true), WithCompactEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("obj-%d-%03d", w, i)
				vv := vclock.NewVersion(fmt.Sprintf("s%d", w))
				if _, err := st.Exec(id, func(*information.Object) (*information.Object, error) {
					return &information.Object{
						ID: id, Schema: "doc", Owner: "ada",
						Fields:  map[string]string{"title": id},
						Version: vv.Sum(), VV: vv, Site: "gmd", Created: t0, Updated: t1,
					}, nil
				}); err != nil {
					t.Errorf("exec %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	re := reopen(t, st)
	defer re.Close()
	if stats := st.Stats(); stats.Appends != writers*perWriter || stats.Fsyncs != stats.Appends+2 {
		t.Fatalf("appends = %d (want %d), fsyncs = %d (want appends + Sync + Close)",
			stats.Appends, writers*perWriter, stats.Fsyncs)
	}
	if re.Len() != writers*perWriter {
		t.Fatalf("recovered %d rows, want %d", re.Len(), writers*perWriter)
	}
}

// TestCompactBesideWriter: the explicit Compact path drops and retakes the
// store mutex around its merge (mergeAllLocked), so a lock held across it
// that a writer also needs would deadlock both. A writer runs against
// every merge window.
func TestCompactBesideWriter(t *testing.T) {
	st, err := Open(t.TempDir(), WithCompactEvery(0), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seedStore(t, st, 8, 17)

	writerDone := make(chan error, 1)
	compactDone := make(chan error, 1)
	var stop atomic.Bool
	go func() {
		// Write until the compactor is done, so every merge window has a
		// concurrent writer contending for the mutexes.
		for i := 0; !stop.Load(); i++ {
			id := fmt.Sprintf("row-%03d", i%32)
			vv := vclock.NewVersion("gmd")
			if _, err := st.Exec(id, func(*information.Object) (*information.Object, error) {
				return &information.Object{
					ID: id, Schema: "doc", Owner: "ada",
					Version: vv.Sum(), VV: vv, Site: "gmd", Created: t0, Updated: t1,
				}, nil
			}); err != nil {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()
	go func() {
		defer stop.Store(true)
		for i := 0; i < 200; i++ {
			if err := st.Compact(); err != nil {
				compactDone <- err
				return
			}
		}
		compactDone <- nil
	}()

	timeout := time.After(60 * time.Second)
	for _, ch := range []chan error{writerDone, compactDone} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("deadlock: Compact vs Exec")
		}
	}
}
