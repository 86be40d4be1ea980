package logstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// appendObjectV1 writes a row in format 1, as stores wrote rows before the
// row codec became compact: the seeds of the format-1 reader's tests.
func appendObjectV1(dst []byte, o *information.Object) []byte {
	dst = wire.AppendString(dst, o.ID)
	dst = wire.AppendString(dst, o.Schema)
	dst = wire.AppendString(dst, o.Owner)
	dst = wire.AppendString(dst, o.Site)
	dst = wire.AppendUint64(dst, o.Version)
	dst = wire.AppendUint64(dst, uint64(len(o.VV)))
	for _, s := range slices.Sorted(maps.Keys(o.VV)) {
		dst = wire.AppendString(dst, s)
		dst = wire.AppendUint64(dst, o.VV[s])
	}
	dst = wire.AppendUint64(dst, uint64(o.Created.UnixNano()))
	dst = wire.AppendUint64(dst, uint64(o.Updated.UnixNano()))
	return wire.AppendStringMap(dst, o.Fields)
}

// fixtureRowV1 is the benchmark's row for key 42 (information's
// codecFixtureRow).
func fixtureRowV1() *information.Object {
	return &information.Object{
		ID: "obj000042", Schema: "mocca-interchange", Owner: "u00042", Site: "s000",
		Fields: map[string]string{
			"title":   "seed obj000042",
			"body":    "shared working material for act0002",
			"author":  "u00042",
			"context": "act0002",
		},
		Version: 1, VV: vclock.Version{"s000": 1},
		Created: netsim.DefaultEpoch, Updated: netsim.DefaultEpoch,
	}
}

// goldenRowV1 is what the store wrote for fixtureRowV1 in format 1
// (recorded at commit 65ae96b, unchanged until the row codec became
// compact). WAL and segment files written by those builds hold rows in
// exactly these bytes.
const goldenRowV1 = "000000096f626a303030303432000000116d6f6363612d696e7465726368616e6765" +
	"000000067530303034320000000473303030000000000000000100000000000000010000000473303030" +
	"000000000000000109d39b5f4a6aa00009d39b5f4a6aa000000000000000000400000006617574686f72" +
	"0000000675303030343200000004626f64790000002373686172656420776f726b696e67206d61746572" +
	"69616c20666f72206163743030303200000007636f6e746578740000000761637430303032000000057469" +
	"746c650000000e73656564206f626a303030303432"

// TestFormat1ReaderReadsParentBytes: the format-1 reader reads the bytes
// earlier builds wrote, and the seed encoder writes them.
func TestFormat1ReaderReadsParentBytes(t *testing.T) {
	golden, err := hex.DecodeString(goldenRowV1)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendObjectV1(nil, fixtureRowV1()); !bytes.Equal(got, golden) {
		t.Fatalf("appendObjectV1 writes\n%x\nnot the golden\n%x", got, golden)
	}
	got, rest, err := decodeObjectV1(append(bytes.Clone(golden), "tail"...))
	if err != nil || string(rest) != "tail" || !reflect.DeepEqual(got, fixtureRowV1()) {
		t.Fatalf("decodeObjectV1: %+v, rest %q, %v", got, rest, err)
	}
}

// referenceDecodeObjectV1 is the string-per-field decoder of format 1,
// which held the format's one decoder while it was the store's: each field
// read and checked as it comes. It returns the stored Version.
func referenceDecodeObjectV1(data []byte) (*information.Object, []byte, error) {
	o := &information.Object{}
	var err error
	for _, s := range []*string{&o.ID, &o.Schema, &o.Owner, &o.Site} {
		if *s, data, err = wire.ConsumeString(data); err != nil {
			return nil, data, err
		}
	}
	if o.Version, data, err = wire.ConsumeUint64(data); err != nil {
		return nil, data, err
	}
	var n uint64
	if n, data, err = wire.ConsumeUint64(data); err != nil {
		return nil, data, err
	}
	// Each entry takes at least 12 bytes (length prefix + counter).
	if n > uint64(len(data))/12 {
		return nil, data, wire.ErrTruncated
	}
	if n > 0 {
		o.VV = make(vclock.Version, n)
		for i := uint64(0); i < n; i++ {
			var site string
			if site, data, err = wire.ConsumeString(data); err != nil {
				return nil, data, err
			}
			if o.VV[site], data, err = wire.ConsumeUint64(data); err != nil {
				return nil, data, err
			}
		}
	}
	var created, updated, nfields uint64
	if created, data, err = wire.ConsumeUint64(data); err != nil {
		return nil, data, err
	}
	if updated, data, err = wire.ConsumeUint64(data); err != nil {
		return nil, data, err
	}
	o.Created = time.Unix(0, int64(created)).UTC()
	o.Updated = time.Unix(0, int64(updated)).UTC()
	if nfields, data, err = wire.ConsumeUint64(data); err != nil {
		return nil, data, err
	}
	// A field is two length prefixes at least.
	if nfields > uint64(len(data))/8 {
		return nil, data, fmt.Errorf("%w: %d fields in %d bytes", wire.ErrTruncated, nfields, len(data))
	}
	if nfields > 0 {
		o.Fields = make(map[string]string, nfields)
		for i := uint64(0); i < nfields; i++ {
			var k, v string
			if k, data, err = wire.ConsumeString(data); err != nil {
				return nil, data, err
			}
			if v, data, err = wire.ConsumeString(data); err != nil {
				return nil, data, err
			}
			o.Fields[k] = v
		}
	}
	return o, data, nil
}

// checkV1MatchesReference: on any input the format-1 reader and the
// reference both fail, or both succeed with the same remainder and the same
// row but for the Version, which the reader takes to be the vector's sum.
func checkV1MatchesReference(t *testing.T, data []byte) {
	t.Helper()
	want, wantRest, refErr := referenceDecodeObjectV1(data)
	got, rest, err := decodeObjectV1(data)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("reference err %v, decodeObjectV1 err %v on %x", refErr, err, data)
	}
	if err != nil {
		return
	}
	want.Version = want.VV.Sum()
	if !reflect.DeepEqual(got, want) || !bytes.Equal(rest, wantRest) {
		t.Fatalf("decodeObjectV1 of %x:\n got %+v, %d bytes left\nwant %+v, %d bytes left", data, got, len(rest), want, len(wantRest))
	}
}

// v1Seeds are format-1 rows at the corners of the format, whole (with a
// tail behind them), cut at every offset and with 2^60 stamped over every
// position; one stores a Version other than its vector's sum.
func v1Seeds() [][]byte {
	at := time.Unix(0, 708080400123456789).UTC()
	wide := vclock.Version{}
	for i := 0; i < 18; i++ {
		wide[fmt.Sprintf("s%03d", i)] = uint64(i*i + 1)
	}
	rows := []*information.Object{
		fixtureRowV1(),
		{ID: "a", Schema: "doc", Owner: "ada", Site: "s0", Version: 3, VV: vclock.Version{"s0": 3}, Created: at, Updated: at},
		{ID: "b", Schema: "doc", Fields: map[string]string{"k": ""}, Created: at, Updated: at},
		{ID: "c", Schema: "doc", Site: "s017", Version: wide.Sum(), VV: wide, Fields: map[string]string{"title": "t"}, Created: at, Updated: at.Add(time.Hour)},
		{ID: "obj-ünï-日本", Schema: "dök", Owner: "jürgen", Site: "köln", Version: 1, VV: vclock.Version{"köln": 1},
			Fields: map[string]string{"títle": "naïve ☃", "": "empty key"}, Created: at, Updated: at},
		{ID: "d", Version: 7, VV: vclock.Version{"s": 1}, Created: time.Unix(0, -5).UTC(), Updated: time.Unix(0, -1).UTC()},
	}
	var out [][]byte
	for _, row := range rows {
		enc := appendObjectV1(nil, row)
		out = append(out, append(bytes.Clone(enc), "tail"...))
		for i := 0; i < len(enc); i++ {
			out = append(out, enc[:i])
		}
		for i := 0; i+8 <= len(enc); i++ {
			bad := bytes.Clone(enc)
			binary.BigEndian.PutUint64(bad[i:], 1<<60)
			out = append(out, bad)
		}
	}
	return out
}

func TestFormat1DecodeMatchesReference(t *testing.T) {
	for _, data := range v1Seeds() {
		checkV1MatchesReference(t, data)
	}
}

func FuzzFormat1DecodeMatchesReference(f *testing.F) {
	for i, data := range v1Seeds() {
		if i%7 == 0 { // a spread of them; TestFormat1DecodeMatchesReference runs all
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkV1MatchesReference(t, data) })
}

// parentReference is what a store an earlier build wrote holds, read from
// its files with that format's row reader and nothing of Open: the
// segment's rows, then the WAL's records in order.
func parentReference(t *testing.T, dir string, decodeRow func([]byte) (*information.Object, []byte, error), execType byte) *information.Store {
	t.Helper()
	ref := information.NewStore()
	store := func(o *information.Object) {
		if _, err := ref.Exec(o.ID, func(*information.Object) (*information.Object, error) { return o, nil }); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := os.ReadFile(filepath.Join(dir, "seg-00000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for rest := seg; len(rest) > 0; {
		payload, next, err := wire.NextRecord(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = next
		if payload[0] != recSegRow {
			if payload[0] == recSegTomb {
				t.Fatal("the parent's segment holds a tombstone")
			}
			continue // the meta region
		}
		o, _, err := decodeRow(payload[1:])
		if err != nil {
			t.Fatal(err)
		}
		store(o)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	for rest := wal; len(rest) > 0; {
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
			store(rec.obj)
		case recRemove:
			if _, err := ref.Remove(rec.id); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("the parent's WAL holds a record of type %d", rec.typ)
		}
	}
	return ref
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

// checkParentStore opens a copy of the fixture and holds it to the
// reference through a history of writes; when wantCompact is not -1, the
// rewritten segment must hold that many rows in the compact form.
func checkParentStore(t *testing.T, fixture string, decodeRow func([]byte) (*information.Object, []byte, error), execType byte, wantCompact int) {
	d := &differ{
		t: t, dir: t.TempDir(),
		opts:   []Option{WithCompactEvery(0), WithMergeFanout(2), WithBackgroundMerge(false)},
		lentSt: lentRows{}, lentRef: lentRows{},
	}
	if err := os.CopyFS(d.dir, os.DirFS(filepath.Join("testdata", fixture))); err != nil {
		t.Fatal(err)
	}
	d.ref = parentReference(t, d.dir, decodeRow, execType)
	ids := []string{"obj-000", "obj-001", "obj-002", "obj-003", "obj-004", "obj-005", "obj-006", "new-0", "new-1", "zz", ""}
	check := func(step string) {
		t.Helper()
		d.step++
		d.what = step
		d.agree()
		d.sameRows("Range", rangeRows(d.st, d.lentSt, -1), rangeRows(d.ref, d.lentRef, -1))
		for _, id := range ids {
			got, okSt := d.st.Get(id)
			want, okRef := d.ref.Get(id)
			if okSt != okRef {
				d.fatalf("Get(%q): logstore %v, reference %v", id, okSt, okRef)
			}
			d.sameRow("Get "+id, got, want)
		}
		d.st.segMu.RLock()
		defer d.st.segMu.RUnlock()
		for _, g := range d.st.segs {
			if g.format != 0 {
				d.fatalf("segment %s is still in format %d", filepath.Base(g.path), g.format)
			}
		}
	}

	d.open()
	defer func() { d.close() }()
	if s := d.st.Stats(); s.UpgradedSegments != 1 || s.Segments != 1 || s.ReplayedRecords != 3 || s.RecoveredObjects != 6 {
		t.Fatalf("recovery stats: %+v", s)
	}
	if _, err := os.Stat(filepath.Join(d.dir, "seg-00000001.seg")); !os.IsNotExist(err) {
		t.Fatalf("the format-1 segment outlived its rewrite: %v", err)
	}
	if got := compactRows(t, d.st); wantCompact >= 0 && got != wantCompact {
		t.Fatalf("the rewritten segment holds %d compact rows, want %d", got, wantCompact)
	}
	check("Open")
	d.execWith("obj-001", 2, "upc", map[string]string{"title": "row 1, in the WAL's row, revised"}, 0)
	d.execWith("obj-003", 2, "gmd", map[string]string{"title": "row 3, in the segment's row, revised"}, 0)
	d.execWith("new-0", 2, "nott", map[string]string{"title": "new"}, 17)
	check("overwrite and add")
	flush(t, d.st)
	check("flush")
	if _, err := d.st.Remove("obj-004"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ref.Remove("obj-004"); err != nil {
		t.Fatal(err)
	}
	d.execWith("new-1", 2, "gmd", nil, 0)
	d.execWith("obj-005", 2, "gmd", map[string]string{"title": "row 5, revised"}, 0)
	check("remove, add and overwrite")
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
			if e.rec == nil {
				continue
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
