package logstore

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"testing"

	"mocca/internal/information"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// flush moves the memtable into a new level-0 segment and merges nothing.
func flush(t *testing.T, st *Store) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.compactLocked(false); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// revise overwrites id with one more revision by gmd.
func revise(t *testing.T, st *Store, id, rev string) {
	t.Helper()
	if _, err := st.Exec(id, func(cur *information.Object) (*information.Object, error) {
		next := cur.Clone()
		next.Fields["rev"] = rev
		next.VV.Tick("gmd")
		next.Version = next.VV.Sum()
		return next, nil
	}); err != nil {
		t.Fatalf("revise %s: %v", id, err)
	}
}

// dataRecords returns the payloads of a segment's data region, in order.
func dataRecords(t *testing.T, g *segment) [][]byte {
	t.Helper()
	data := make([]byte, g.metaOff)
	if _, err := g.f.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for len(data) > 0 {
		payload, rest, err := wire.NextRecord(data)
		if err != nil {
			t.Fatal(err)
		}
		out, data = append(out, payload), rest
	}
	return out
}

// segmentAt returns the live segment at position i, newest first.
func segmentAt(t *testing.T, st *Store, i, of int) *segment {
	t.Helper()
	st.segMu.RLock()
	defer st.segMu.RUnlock()
	if len(st.segs) != of {
		t.Fatalf("%d live segments, want %d", len(st.segs), of)
	}
	return st.segs[i]
}

// TestMergeCopiesCanonicalBytes: compaction moves a winning row as the
// record it read, and that is the record a decode and re-encode would have
// written; superseded versions stay behind, in a merge of one level over
// an older one as in a merge of the whole store.
func TestMergeCopiesCanonicalBytes(t *testing.T) {
	st, err := Open(t.TempDir(), WithCompactEvery(0), WithMergeFanout(2), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wide := vclock.Version{}
	for i := 0; i < 18; i++ {
		wide[fmt.Sprintf("s%02d", i)] = uint64(i + 1)
	}
	put(t, st, "cold", vclock.NewVersion("upc"), "upc", nil)
	put(t, st, "warm", vclock.NewVersion("gmd"), "gmd", map[string]string{"rev": "1"})
	put(t, st, "hot", vclock.NewVersion("gmd"), "gmd", map[string]string{"rev": "1", "": "empty key"})
	flush(t, st)
	revise(t, st, "hot", "2")
	put(t, st, "wide", wide, "nott", map[string]string{"title": "t", "body": "b", "author": "a", "context": "c"})
	flush(t, st)
	if !st.mergeOnce() { // two level-0 segments into the first level-1
		t.Fatal("no merge with two segments at level 0 and a fanout of 2")
	}

	revise(t, st, "hot", "3")
	revise(t, st, "warm", "2")
	flush(t, st)
	revise(t, st, "hot", "4")
	flush(t, st)
	want := map[string][]byte{}
	for _, o := range rows(st) {
		want[o.ID] = information.AppendObject(nil, o)
	}

	// Level 0 merges while level 1 still holds the first revisions of hot
	// and warm: its output holds each id once, hot's rev 3 left behind.
	if !st.mergeOnce() {
		t.Fatal("no merge with two segments at level 0")
	}
	var ids []string
	for _, payload := range dataRecords(t, segmentAt(t, st, 0, 2)) {
		row, _, err := information.DecodeObject(payload[1:])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload[1:], want[row.ID]) {
			t.Fatalf("%s: the level-0 merge kept %x, the newest version is %x", row.ID, payload[1:], want[row.ID])
		}
		ids = append(ids, row.ID)
	}
	if !slices.Equal(ids, []string{"hot", "warm"}) {
		t.Fatalf("level-0 merge wrote %q, want hot and warm", ids)
	}

	// The last merge's output is the whole store.
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, payload := range dataRecords(t, segmentAt(t, st, 0, 1)) {
		if payload[0] != recSegRow {
			t.Fatalf("record type %d in the final segment, want rows only", payload[0])
		}
		row, rest, err := information.DecodeObject(payload[1:])
		if err != nil || len(rest) != 0 {
			t.Fatalf("record does not decode: %v, %d bytes left", err, len(rest))
		}
		if again := information.AppendObject(nil, row); !bytes.Equal(again, payload[1:]) {
			t.Fatalf("%s: the merge wrote %x, decode and re-encode gives %x", row.ID, payload[1:], again)
		}
		if !bytes.Equal(payload[1:], want[row.ID]) {
			t.Fatalf("%s: the merge kept %x, the newest version is %x", row.ID, payload[1:], want[row.ID])
		}
		delete(want, row.ID)
	}
	if len(want) != 0 {
		t.Fatalf("the merge lost %d rows", len(want))
	}
}

// rotRecord rewrites g's segment file with victim's row payload cut
// short and framed afresh: a record whose CRC is good and whose payload does
// not parse.
func rotRecord(t *testing.T, g *segment, victim string) {
	t.Helper()
	w, err := newSegWriter(g.path+".rot", g.id, g.level, g.seqLo, g.seqHi, g.count)
	if err != nil {
		t.Fatal(err)
	}
	it, hit := g.iter(), false
	for {
		e, ok, err := it.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if e.id == victim {
			e.rec, hit = e.rec[:len(e.rec)-3], true
		}
		if err := w.add(e); err != nil {
			t.Fatal(err)
		}
	}
	if !hit {
		t.Fatalf("segment %s holds no %q", g.path, victim)
	}
	out, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	out.closeFile()
	if err := os.Rename(out.path, g.path); err != nil {
		t.Fatal(err)
	}
}

// TestUnparsableRecordRefusedEverywhere: reading lazily must not hide rot. A
// record that frames (good CRC) but does not parse is refused wherever it
// sits — as the newest version of its id, or as a superseded one no reader
// would ever decode — by scans, by compaction and by point reads.
func TestUnparsableRecordRefusedEverywhere(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rotted int // position of the segment to damage, newest first
	}{{"winner", 0}, {"superseded", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithCompactEvery(0), WithBackgroundMerge(false)}
			st, err := Open(t.TempDir(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"a", "doc", "z"} {
				put(t, st, id, vclock.NewVersion("gmd"), "gmd", map[string]string{"rev": "1"})
			}
			flush(t, st)
			revise(t, st, "doc", "2")
			flush(t, st)
			rotRecord(t, segmentAt(t, st, tc.rotted, 2), "doc")
			st = reopen(t, st, opts...)
			defer st.Close()

			// Scans stop, and say so.
			rows := 0
			st.Range(func(*information.Object) bool { rows++; return true })
			digest := st.Digest()
			if len(digest) == 3 || rows == 3 {
				t.Fatalf("a scan read past the damage: digest %d ids, Range %d rows", len(digest), rows)
			}
			if got := st.Stats().IterationFailures; got != 2 {
				t.Fatalf("IterationFailures = %d after two scans", got)
			}
			// Compaction fails and leaves its inputs live and readable.
			if err := st.Compact(); err == nil {
				t.Fatal("Compact merged a record that does not parse")
			}
			if stats := st.Stats(); stats.CompactionFailures != 1 || stats.Segments != 2 {
				t.Fatalf("after the failed Compact: %+v", stats)
			}
			for _, id := range []string{"a", "z"} {
				if o, ok := st.Get(id); !ok || o.Fields["rev"] != "1" {
					t.Fatalf("Get(%q) = %+v, %v after the failed Compact", id, o, ok)
				}
			}
			// Point reads: the newest holder answers, or fails; an older one
			// is never consulted in its place.
			o, ok := st.Get("doc")
			_, execErr := st.Exec("doc", func(cur *information.Object) (*information.Object, error) { return nil, nil })
			failures := st.Stats().SegmentReadFailures
			if tc.rotted == 0 {
				if ok || execErr == nil || failures != 2 {
					t.Fatalf("newest version unreadable: Get = %+v, %v; Exec err %v; %d read failures", o, ok, execErr, failures)
				}
			} else if !ok || o.Fields["rev"] != "2" || execErr != nil || failures != 0 {
				t.Fatalf("newest version intact: Get = %+v, %v; Exec err %v; %d read failures", o, ok, execErr, failures)
			}
		})
	}
}
