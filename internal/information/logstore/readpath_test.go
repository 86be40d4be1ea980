package logstore

import (
	"fmt"
	"reflect"
	"testing"

	"mocca/internal/information"
	"mocca/internal/vclock"
)

// raceEnabled is set by race_test.go when the tests run under -race.
var raceEnabled bool

// flushedStore returns a store whose n rows (row(0) … row(n-1)) all sit in
// one segment, with an empty memtable above it.
func flushedStore(t *testing.T, n int) *Store {
	t.Helper()
	st, err := Open(t.TempDir(), WithCompactEvery(0), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for i := range n {
		o := segRow(i)
		put(t, st, o.ID, o.VV, o.Site, o.Fields)
	}
	flush(t, st)
	return st
}

// segRow is the i-th row flushedStore writes.
func segRow(i int) *information.Object {
	return &information.Object{
		ID: fmt.Sprintf("obj-%04d", i), Schema: "doc", Owner: "ada", Site: "gmd",
		Fields:  map[string]string{"title": fmt.Sprintf("rev %04d", i), "body": "the quick brown fox"},
		Version: 1, VV: vclock.NewVersion("gmd"), Created: t0, Updated: t1,
	}
}

// TestDecodedRowOwnsItsBytes: a point read decodes its row out of a pooled
// chunk buffer; the next read that takes that buffer must not change it.
func TestDecodedRowOwnsItsBytes(t *testing.T) {
	st := flushedStore(t, 4*segIndexEvery)
	first, ok := st.Get(segRow(1).ID)
	if !ok {
		t.Fatal("the first row is missing")
	}
	// A row in another index chunk, of the same size (every row is): its
	// bytes land where the first row's were.
	second, ok := st.Get(segRow(3*segIndexEvery + 1).ID)
	if !ok {
		t.Fatal("the second row is missing")
	}
	if !reflect.DeepEqual(first, segRow(1)) || !reflect.DeepEqual(second, segRow(3*segIndexEvery+1)) {
		t.Fatalf("rows read through one chunk buffer:\n%+v\n%+v", first, second)
	}
}

// TestScanAllocations: per segment row, a scan allocates the id the merge
// compares and what decoding the row (Range) or its vector (Digest) costs —
// nothing for the record's header, nothing for ids it only compares. A point
// read costs its row's decode and nothing else, however many rows of the
// chunk it walks past.
func TestScanAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 512
	st := flushedStore(t, n)
	row := segRow(n - 2) // near a chunk's end: the read walks past 30 rows
	enc := information.AppendObject(nil, row)
	rowCost := testing.AllocsPerRun(50, func() { _, _, _ = information.DecodeObject(enc) })
	vv := row.VV.AppendBinary(nil)
	vvCost := testing.AllocsPerRun(50, func() { _, _, _ = vclock.DecodeVersion(vv) })
	const perScan = 32 // the iterators, their read buffers, the merge's cursors
	for _, c := range []struct {
		name   string
		scan   func()
		perRow float64
	}{
		{"Range", func() { st.Range(func(*information.Object) bool { return true }) }, 1 + rowCost},
		{"Digest", func() { _ = st.Digest() }, 1 + vvCost},
	} {
		if got := testing.AllocsPerRun(5, c.scan); got > n*c.perRow+perScan {
			t.Errorf("%s of %d segment rows allocates %v times, want at most %v per row and %d per scan", c.name, n, got, c.perRow, perScan)
		}
	}
	if got := testing.AllocsPerRun(50, func() { _, _ = st.Get(row.ID) }); got > rowCost {
		t.Errorf("a point read allocates %v times, decoding its row %v", got, rowCost)
	}
}
