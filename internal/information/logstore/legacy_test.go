package logstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"mocca/internal/information"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// parentReference is what a store an earlier build wrote holds, read from
// its files with that format's readers and nothing of Open: the segments'
// rows and tombstones, oldest segment first, then the WAL's records in
// order. A tombstone or a removal takes its id out. It also returns how
// many segment files and WAL records the store held.
func parentReference(t *testing.T, dir string, decodeRow func([]byte) (*information.Object, []byte, error), execType byte) (ref *information.Store, segFiles, walRecs int) {
	t.Helper()
	held := map[string]*information.Object{}
	tombID := wire.ConsumeVarString
	if execType == recExecV1 {
		tombID = wire.ConsumeString
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg")) // ids ascend with age
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range segs {
		seg, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for rest := seg; len(rest) > 0; {
			payload, next, err := wire.NextRecord(rest)
			if err != nil {
				t.Fatal(err)
			}
			rest = next
			switch payload[0] {
			case recSegRow:
				o, _, err := decodeRow(payload[1:])
				if err != nil {
					t.Fatal(err)
				}
				held[o.ID] = o
			case recSegTomb:
				id, _, err := tombID(payload[1:])
				if err != nil {
					t.Fatal(err)
				}
				delete(held, id)
			}
			// Anything else is the meta region.
		}
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	for rest := wal; len(rest) > 0; walRecs++ {
		payload, next, err := wire.NextRecord(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = next
		rec, err := decodeWALRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		switch rec.typ {
		case execType:
			held[rec.obj.ID] = rec.obj
		case recRemove:
			delete(held, rec.id)
		default:
			t.Fatalf("the parent's WAL holds a record of type %d", rec.typ)
		}
	}
	ref = information.NewStore()
	for id, o := range held {
		if _, err := ref.Exec(id, func(*information.Object) (*information.Object, error) { return o, nil }); err != nil {
			t.Fatal(err)
		}
	}
	return ref, len(segs), walRecs
}

// holdsNoRemoval requires that st hold rows alone: every segment in the
// current format and read end to end by the steady-state iterator, which
// refuses anything but a row, and no removal in the WAL.
func holdsNoRemoval(t *testing.T, st *Store) {
	t.Helper()
	segs := st.acquireSegs()
	defer releaseSegs(segs)
	for _, g := range segs {
		if g.format != 0 {
			t.Fatalf("segment %s is still in format %d", filepath.Base(g.path), g.format)
		}
		for it := g.iter(); ; {
			_, ok, err := it.next()
			if err != nil {
				t.Fatalf("segment %s: %v", filepath.Base(g.path), err)
			}
			if !ok {
				break
			}
		}
	}
	wal, err := os.ReadFile(filepath.Join(st.Dir(), walName))
	if err != nil {
		t.Fatal(err)
	}
	for rest := wal; len(rest) > 0; {
		payload, next, err := wire.NextRecord(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = next
		if rec, err := decodeWALRecord(payload); err != nil || rec.obj == nil {
			t.Fatalf("the WAL holds a record of type %d that is no row (%v)", rec.typ, err)
		}
	}
}

// TestParentStoreTakesNewFormat opens the store an earlier build wrote in
// format 1 (testdata/parent-store-rows: a segment, and a WAL tail holding
// an overwrite, a new row and a removal), then overwrites and adds rows,
// flushes, merges, compacts and reopens it. After every step every Get,
// Range and Digest equals an information.Store given the same history.
func TestParentStoreTakesNewFormat(t *testing.T) {
	checkParentStore(t, "parent-store-rows", decodeObjectV1, recExecV1, -1)
}

// TestParentStoreV2TakesNewFormat is the same for the store the build
// before rows named their schema by id wrote in format 2
// (testdata/parent-store-v2: six rows in a segment, five on the
// interchange schema and one with a key "doc" does not declare, then an
// overwrite, a new row and a removal in the WAL). Its segment is rewritten
// with rows in the compact form where they can take it.
func TestParentStoreV2TakesNewFormat(t *testing.T) {
	checkParentStore(t, "parent-store-v2", decodeObjectV2, recExecV2, 5)
}

// TestTombstoneMasksSegmentRow is the same for the store the build before
// rows were never removed wrote (testdata/parent-store-tomb): "gone" in the
// oldest segment masked by a tombstone in the next, "twice" masked there
// too and put again in the newest, "back" masked there and put again in
// the WAL, which also removes "keep", a segment's row, and "d", its own.
// Open folds the three segments and the WAL into one segment of rows.
func TestTombstoneMasksSegmentRow(t *testing.T) {
	ref := checkParentStore(t, "parent-store-tomb", information.DecodeObject, recExec, 5)
	var got []string
	ref.Range(func(o *information.Object) bool {
		got = append(got, o.ID+"="+o.Fields["title"])
		return true
	})
	want := []string{"a=a, kept", "b=b", "back=back, re-put in the WAL", "c=c", "twice=twice, re-put in a segment"}
	if slices.Sort(got); !reflect.DeepEqual(got, want) {
		t.Fatalf("the reference holds %q, want %q", got, want)
	}
}

// checkParentStore opens a copy of the fixture and holds it to the
// reference through a history of writes; when wantCompact is not -1, the
// folded segment must hold that many rows in the compact form. It returns
// the reference as it read the fixture.
func checkParentStore(t *testing.T, fixture string, decodeRow func([]byte) (*information.Object, []byte, error), execType byte, wantCompact int) *information.Store {
	d := &differ{
		t: t, dir: t.TempDir(),
		opts:   []Option{WithCompactEvery(0), WithMergeFanout(2), WithBackgroundMerge(false)},
		lentSt: lentRows{}, lentRef: lentRows{},
	}
	if err := os.CopyFS(d.dir, os.DirFS(filepath.Join("testdata", fixture))); err != nil {
		t.Fatal(err)
	}
	ref, segFiles, walRecs := parentReference(t, d.dir, decodeRow, execType)
	d.ref = ref
	parent := rows(ref)
	ids := []string{"obj-000", "obj-001", "obj-002", "obj-003", "obj-004", "obj-005", "obj-006", "new-0", "new-1", "zz", "",
		"a", "b", "back", "c", "d", "gone", "keep", "twice"}
	check := func(step string) {
		t.Helper()
		d.step++
		d.what = step
		d.agree()
		for _, id := range ids {
			got, okSt := d.st.Get(id)
			want, okRef := d.ref.Get(id)
			if okSt != okRef {
				d.fatalf("Get(%q): logstore %v, reference %v", id, okSt, okRef)
			}
			d.sameRow("Get "+id, got, want)
		}
		holdsNoRemoval(t, d.st)
	}

	d.open()
	defer func() { d.close() }()
	if s := d.st.Stats(); s.UpgradedSegments != segFiles || s.Segments != 1 || s.ReplayedRecords != walRecs ||
		s.SkippedRecords != 0 || s.DiscardedBytes != 0 || s.RecoveredObjects != ref.Len() {
		t.Fatalf("recovery stats: %+v", s)
	}
	if _, err := os.Stat(filepath.Join(d.dir, "seg-00000001.seg")); !os.IsNotExist(err) {
		t.Fatalf("the parent's segment outlived the fold: %v", err)
	}
	if got := compactRows(t, d.st); wantCompact >= 0 && got != wantCompact {
		t.Fatalf("the folded segment holds %d compact rows, want %d", got, wantCompact)
	}
	check("Open")
	d.execWith("obj-001", 2, "upc", map[string]string{"title": "row 1, in the WAL's row, revised"}, 0)
	d.execWith("obj-003", 2, "gmd", map[string]string{"title": "row 3, in the segment's row, revised"}, 0)
	d.execWith("new-0", 2, "nott", map[string]string{"title": "new"}, 17)
	d.execWith("twice", 2, "upc", map[string]string{"title": "twice, revised"}, 0)
	check("overwrite and add")
	flush(t, d.st)
	check("flush")
	d.execWith("new-1", 2, "gmd", nil, 0)
	d.execWith("obj-005", 2, "gmd", map[string]string{"title": "row 5, revised"}, 0)
	d.execWith("gone", 2, "gmd", map[string]string{"title": "gone, put again"}, 0)
	check("add and overwrite")
	flush(t, d.st)
	check("second flush")
	d.mergeDue()
	check("merge")
	d.execWith("obj-006", 2, "upc", map[string]string{"title": "row 6, revised"}, 0)
	if err := d.st.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compact")
	d.reopen()
	if s := d.st.Stats(); s.UpgradedSegments != 0 {
		t.Fatalf("reopen rewrote %d segments", s.UpgradedSegments)
	}
	check("reopen")
	d.lentSt.check(t, "logstore")
	d.lentRef.check(t, "information.Store")
	out := information.NewStore()
	for _, o := range parent {
		if _, err := out.Exec(o.ID, func(*information.Object) (*information.Object, error) { return o, nil }); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// compactRows counts the rows of the store's segments that name their
// schema by id.
func compactRows(t *testing.T, st *Store) int {
	t.Helper()
	st.segMu.RLock()
	defer st.segMu.RUnlock()
	n := 0
	for _, g := range st.segs {
		it := g.iter()
		for {
			e, ok, err := it.next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if _, compact, err := information.ObjectSchemaID(e.rec[1:]); err != nil {
				t.Fatal(err)
			} else if compact {
				n++
			}
		}
	}
	return n
}

// appendRemoval appends to dir's WAL the removal of id an earlier build
// logged, numbered seq.
func appendRemoval(t *testing.T, dir string, seq uint64, id string) {
	t.Helper()
	frame, err := wire.AppendRecord(nil, wire.AppendString(appendWALPayload(nil, recRemove, seq), id))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveDurable: a removal an earlier build logged stays durable. Open
// folds it, with the rows beside it as they were, whether the removed row
// is in the WAL alone or in a segment (snapshot); and a crash between the
// fold's manifest swap and its WAL truncate, which leaves the covered
// removal in the WAL, folds again to the same rows.
func TestRemoveDurable(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot=%v", snapshot), func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, WithCompactEvery(0))
			if err != nil {
				t.Fatal(err)
			}
			ids := seedStore(t, st, 8, 42)
			if snapshot {
				if err := st.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			want := digestBinary(st)
			delete(want, ids[3])
			seq := st.seq
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			appendRemoval(t, dir, seq+1, ids[3])
			appendRemoval(t, dir, seq+2, ids[3]) // of a row already gone: nothing
			wal, err := os.ReadFile(filepath.Join(dir, walName))
			if err != nil {
				t.Fatal(err)
			}

			open := func(step string) *Store {
				t.Helper()
				re, err := Open(dir, WithCompactEvery(0))
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := re.Get(ids[3]); ok {
					t.Fatalf("%s: removed row resurrected", step)
				}
				if got := digestBinary(re); re.Len() != len(want) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %d rows %v, want %v", step, re.Len(), got, want)
				}
				holdsNoRemoval(t, re)
				if info, err := os.Stat(filepath.Join(dir, walName)); err != nil {
					t.Fatal(err)
				} else if info.Size() != 0 {
					t.Fatalf("%s: the fold left %d bytes in the WAL", step, info.Size())
				}
				return re
			}
			if err := open("Open").Close(); err != nil {
				t.Fatal(err)
			}
			// The crash: the fold's manifest stands, its WAL truncate never
			// happened.
			if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
				t.Fatal(err)
			}
			re := open("Open after a fold that left its WAL")
			put(t, re, "after", vclock.NewVersion("gmd"), "gmd", nil)
			if re.seq <= seq+2 {
				t.Fatalf("a write after the fold took record %d, not past the removals' %d", re.seq, seq+2)
			}
			want["after"] = vclock.NewVersion("gmd").AppendBinary(nil)
			re = reopen(t, re, WithCompactEvery(0))
			defer re.Close()
			if got := digestBinary(re); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopen: rows %v, want %v", got, want)
			}
		})
	}
}
