package logstore

import (
	"bytes"
	"errors"
	"maps"
	"path/filepath"
	"testing"

	"mocca/internal/information"
)

// unknownSchemaRow is a row in the compact form naming a schema id no one
// registered: the fixture row with its interchange id overwritten.
func unknownSchemaRow(t *testing.T, id string) []byte {
	t.Helper()
	row := fixtureRowV1()
	row.ID = id
	enc := information.AppendObject(nil, row)
	at := 1 + len(id) // the id's length and bytes, then the form's marker
	if enc[at] != 0 {
		t.Fatalf("the fixture row spells its schema: %x", enc)
	}
	copy(enc[at+1:], []byte{0xde, 0xad, 0xbe, 0xef})
	if _, _, err := information.DecodeObject(enc); !errors.Is(err, information.ErrUnknownSchema) {
		t.Fatalf("the row decodes: %v", err)
	}
	return enc
}

// TestUnknownSchemaIDRefused: a store whose rows name a schema id that
// neither this process nor the store's schema file defines — in its WAL,
// or in a segment — is refused at Open with information.ErrUnknownSchema
// and left exactly as it was. Read as a torn tail, the WAL record would
// take every record after it along; admitted, the segment would fail every
// read of its rows.
func TestUnknownSchemaIDRefused(t *testing.T) {
	written := func(t *testing.T) (string, *Store) {
		dir := t.TempDir()
		st, err := Open(dir, WithCompactEvery(0), WithBackgroundMerge(false))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"a", "b"} {
			row := fixtureRowV1()
			row.ID = id
			if _, err := st.Exec(id, func(*information.Object) (*information.Object, error) { return row, nil }); err != nil {
				t.Fatal(err)
			}
		}
		return dir, st
	}
	refused := func(t *testing.T, dir string) {
		t.Helper()
		before := dirBytes(t, dir)
		st, err := Open(dir, WithBackgroundMerge(false))
		if err == nil {
			st.Close()
		}
		if !errors.Is(err, information.ErrUnknownSchema) {
			t.Fatalf("Open: %v, want information.ErrUnknownSchema", err)
		}
		if after := dirBytes(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
			t.Fatal("the refused store's files changed")
		}
	}

	t.Run("wal", func(t *testing.T) {
		dir, st := written(t)
		// The unknown row, then one more good record behind it.
		st.mu.Lock()
		err := st.appendLocked(append(st.recordLocked(recExec), unknownSchemaRow(t, "c")...))
		if err == nil {
			err = st.appendLocked(information.AppendObject(st.recordLocked(recExec), fixtureRowV1()))
		}
		st.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if err = st.Close(); err != nil {
			t.Fatal(err)
		}
		refused(t, dir)
	})

	t.Run("segment", func(t *testing.T) {
		dir, st := written(t)
		flush(t, st)
		st.mu.Lock()
		w, err := newSegWriter(filepath.Join(dir, segName(st.nextSegID)), st.nextSegID, 0, st.seq+1, st.seq+1, 1)
		if err != nil {
			t.Fatal(err)
		}
		st.nextSegID++
		if err = w.add(flushEntry{id: "c", rec: append([]byte{recSegRow}, unknownSchemaRow(t, "c")...)}); err != nil {
			t.Fatal(err)
		}
		seg, err := w.finish()
		if err != nil {
			t.Fatal(err)
		}
		err = st.writeManifestLocked(append([]*segment{seg}, st.segs...))
		st.mu.Unlock()
		seg.closeFile()
		if err != nil {
			t.Fatal(err)
		}
		if err = st.Close(); err != nil {
			t.Fatal(err)
		}
		refused(t, dir)
	})
}
