package logstore

import (
	"bytes"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"mocca/internal/information"
)

// learnedNoteDir hands the store's directory to the child process of
// TestStoreCarriesItsSchemas.
const learnedNoteDir = "LOGSTORE_TEST_LEARNED_NOTE_DIR"

// learnedNote is a row of the "learned-note" schema, which only
// TestStoreCarriesItsSchemas registers.
func learnedNote(id string, fields map[string]string) *information.Object {
	row := fixtureRowV1()
	row.ID, row.Schema, row.Fields = id, "learned-note", fields
	return row
}

// TestStoreCarriesItsSchemas: a store whose rows name an application's
// schema by content id — in a segment and in the WAL — opens, and its rows
// decode, in a fresh process that has registered no such schema, because
// the store keeps the definitions in its schema file. The process may then
// register the schema with another field list (the definition learned from
// the store does not hold the name), and the rows of both shapes read back
// after another reopen. The table is process-wide, so the reopen runs in a
// child process of the test binary, where this test's registration never
// ran.
func TestStoreCarriesItsSchemas(t *testing.T) {
	put := func(t *testing.T, st *Store, row *information.Object) {
		t.Helper()
		if _, err := st.Exec(row.ID, func(*information.Object) (*information.Object, error) { return row, nil }); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, st *Store, want ...*information.Object) {
		t.Helper()
		for _, w := range want {
			got, ok := st.Get(w.ID)
			if !ok || got.Schema != w.Schema || !maps.Equal(got.Fields, w.Fields) {
				t.Fatalf("row %s reads back as %+v, want %+v", w.ID, got, w)
			}
		}
	}
	old := []*information.Object{
		learnedNote("n1", map[string]string{"head": "flushed", "body": "in a segment"}),
		learnedNote("n2", map[string]string{"head": "logged"}),
	}

	if dir := os.Getenv(learnedNoteDir); dir != "" {
		st, err := Open(dir, WithBackgroundMerge(false))
		if err != nil {
			t.Fatalf("Open before the schema is registered: %v", err)
		}
		check(t, st, old...)
		// The application's schema has since lost its body field.
		if err := information.NewSchemaRegistry().Register(information.Schema{Name: "learned-note",
			Fields: []information.Field{{Name: "head", Type: information.FieldText}}}); err != nil {
			t.Fatalf("Register another field list under a learned name: %v", err)
		}
		now := learnedNote("n3", map[string]string{"head": "new shape"})
		put(t, st, now)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = Open(dir, WithBackgroundMerge(false)); err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		check(t, st, append(old, now)...)
		return
	}

	if err := information.NewSchemaRegistry().Register(information.Schema{Name: "learned-note", Fields: []information.Field{
		{Name: "head", Type: information.FieldText}, {Name: "body", Type: information.FieldText}}}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := Open(dir, WithCompactEvery(0), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	put(t, st, old[0])
	flush(t, st)
	put(t, st, old[1])
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, row := range old {
		if _, compact, _ := information.ObjectSchemaID(information.AppendObject(nil, row)); !compact {
			t.Fatalf("row %s spells its schema", row.ID)
		}
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestStoreCarriesItsSchemas$", "-test.count=1")
	cmd.Env = append(os.Environ(), learnedNoteDir+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("reopen in a fresh process: %v\n%s", err, out)
	}
}

// TestTornSchemaRecordTruncated: a schema record torn by a crash mid-append
// is cut off at Open, so the definitions appended after it are readable;
// the store's rows, all of whose definitions precede it, are intact.
func TestTornSchemaRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	row := fixtureRowV1()
	if _, err := st.Exec(row.ID, func(*information.Object) (*information.Object, error) { return row, nil }); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, schemasName)
	intact, err := os.ReadFile(path)
	if err != nil || len(intact) == 0 {
		t.Fatalf("schema file: %d bytes, %v", len(intact), err)
	}
	if err := os.WriteFile(path, append(bytes.Clone(intact), intact[:len(intact)-1]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir, WithBackgroundMerge(false)); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, ok := st.Get(row.ID); !ok || !maps.Equal(got.Fields, row.Fields) {
		t.Fatalf("row reads back as %+v", got)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, intact) {
		t.Fatalf("schema file after Open: %x, %v; want %x", after, err, intact)
	}
}
