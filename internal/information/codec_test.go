package information

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mocca/internal/netsim"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// codecFixtureRow is the benchmark's row (bench/store.go fixtureRow): the
// workload harness's seeded object on the shared interchange schema.
func codecFixtureRow(key uint32) *Object {
	id := fmt.Sprintf("obj%06d", key)
	owner := fmt.Sprintf("u%05d", key%2000)
	return &Object{
		ID: id, Schema: "mocca-interchange", Owner: owner, Site: "s000",
		Fields: map[string]string{
			"title":   "seed " + id,
			"body":    fmt.Sprintf("shared working material for act%04d", key%20),
			"author":  owner,
			"context": fmt.Sprintf("act%04d", key%20),
		},
		Version: 1, VV: vclock.NewVersion("s000"),
		Created: netsim.DefaultEpoch, Updated: netsim.DefaultEpoch,
	}
}

// goldenFixtureRow is what logstore's appendObject wrote for
// codecFixtureRow(42) before the row codec moved up into this package
// (recorded at commit 65ae96b). WAL and segment files written by earlier
// builds hold rows in exactly these bytes.
const goldenFixtureRow = "000000096f626a303030303432000000116d6f6363612d696e7465726368616e6765" +
	"000000067530303034320000000473303030000000000000000100000000000000010000000473303030" +
	"000000000000000109d39b5f4a6aa00009d39b5f4a6aa000000000000000000400000006617574686f72" +
	"0000000675303030343200000004626f64790000002373686172656420776f726b696e67206d61746572" +
	"69616c20666f72206163743030303200000007636f6e746578740000000761637430303032000000057469" +
	"746c650000000e73656564206f626a303030303432"

// TestAppendObjectGolden: one codec, two carriers — and the first
// carrier's bytes did not move.
func TestAppendObjectGolden(t *testing.T) {
	got := AppendObject(nil, codecFixtureRow(42))
	if hex.EncodeToString(got) != goldenFixtureRow {
		t.Fatalf("AppendObject(fixture row) changed:\n got %x\nwant %s", got, goldenFixtureRow)
	}
	// Appending extends dst and leaves what was there alone.
	if withPrefix := AppendObject([]byte("wal"), codecFixtureRow(42)); !bytes.Equal(withPrefix[3:], got) || string(withPrefix[:3]) != "wal" {
		t.Fatalf("AppendObject did not append: %x", withPrefix)
	}
}

// codecEdgeRows are rows at the corners of the format.
func codecEdgeRows() map[string]*Object {
	wide := vclock.Version{}
	for i := 0; i < 18; i++ {
		wide[fmt.Sprintf("s%03d", i)] = uint64(i*i + 1)
	}
	at := time.Unix(0, 708080400123456789).UTC()
	return map[string]*Object{
		"fixture":    codecFixtureRow(7),
		"nil fields": {ID: "a", Schema: "doc", Owner: "ada", Site: "s0", Version: 3, VV: vclock.Version{"s0": 3}, Created: at, Updated: at},
		"nil vv":     {ID: "b", Schema: "doc", Fields: map[string]string{"k": ""}, Created: at, Updated: at},
		"18-site vv": {ID: "c", Schema: "doc", Site: "s017", Version: wide.Sum(), VV: wide, Fields: map[string]string{"title": "t"}, Created: at, Updated: at.Add(time.Hour)},
		"non-ascii": {ID: "obj-ünï-日本", Schema: "dök", Owner: "jürgen", Site: "köln",
			Version: 1, VV: vclock.Version{"köln": 1}, Fields: map[string]string{"títle": "naïve ☃", "": "empty key"}, Created: at, Updated: at},
		"before 1970": {ID: "d", VV: vclock.Version{"s": 1}, Created: time.Unix(0, -5).UTC(), Updated: time.Unix(0, -1).UTC()},
	}
}

func TestObjectCodecRoundTrip(t *testing.T) {
	for name, row := range codecEdgeRows() {
		enc := AppendObject(nil, row)
		got, rest, err := DecodeObject(append(enc, "tail"...))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(rest) != "tail" {
			t.Fatalf("%s: rest = %q, want the bytes after the row", name, rest)
		}
		if !reflect.DeepEqual(got, row) {
			t.Fatalf("%s: round trip\n got %+v\nwant %+v", name, got, row)
		}
		if again := AppendObject(nil, got); !bytes.Equal(again, enc) {
			t.Fatalf("%s: re-encoding differs", name)
		}
	}
	// Empty and nil maps are one encoding; both decode as nil.
	empty := &Object{ID: "e", Fields: map[string]string{}, VV: vclock.Version{}}
	if !bytes.Equal(AppendObject(nil, empty), AppendObject(nil, &Object{ID: "e"})) {
		t.Fatal("empty maps encode differently from nil maps")
	}
	got, _, err := DecodeObject(AppendObject(nil, empty))
	if err != nil || got.Fields != nil || got.VV != nil {
		t.Fatalf("empty maps decoded as %+v, %v; want nil maps", got, err)
	}
}

// TestObjectCodecCanonical: equal rows encode to equal bytes whatever
// order their maps were filled in.
func TestObjectCodecCanonical(t *testing.T) {
	want := AppendObject(nil, codecEdgeRows()["18-site vv"])
	for trial := 0; trial < 20; trial++ {
		src := codecEdgeRows()["18-site vv"]
		row := *src
		row.VV, row.Fields = vclock.Version{}, map[string]string{}
		sites := make([]string, 0, len(src.VV))
		for s := range src.VV { // random order each trial
			sites = append(sites, s)
		}
		for _, s := range sites {
			row.VV[s] = src.VV[s]
		}
		for k, v := range src.Fields {
			row.Fields[k] = v
		}
		if got := AppendObject(nil, &row); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: encoding depends on map insertion order", trial)
		}
	}
}

// TestDecodeObjectRejectsDamage: rows now arrive off the network, so a cut
// or a hostile count must be an error — never a panic, never an
// allocation sized by the count.
func TestDecodeObjectRejectsDamage(t *testing.T) {
	enc := AppendObject(nil, codecEdgeRows()["18-site vv"])
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeObject(enc[:i]); err == nil {
			t.Fatalf("row cut at %d of %d decoded", i, len(enc))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i+8 <= len(enc); i++ {
		bad := bytes.Clone(enc)
		binary.BigEndian.PutUint64(bad[i:], 1<<60)
		_, _, _ = DecodeObject(bad) // an error or a row with a changed value: not a panic
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("decoding counts of 2^60 allocated %d bytes", grew)
	}
	// The field count is the one count this package bounds itself.
	fields := AppendObject(nil, &Object{ID: "x"})
	binary.BigEndian.PutUint64(fields[len(fields)-8:], 1<<60)
	if _, _, err := DecodeObject(fields); err == nil {
		t.Fatal("a field count of 2^60 decoded")
	}
}

// checkScanMatchesDecode is the walk's whole contract: ScanObject fails on
// exactly the inputs DecodeObject fails on, and on the rest it finds the
// id, the vector's bytes and the end of the row where DecodeObject does.
func checkScanMatchesDecode(t *testing.T, data []byte) {
	t.Helper()
	row, wantRest, decErr := DecodeObject(data)
	id, vv, rest, scanErr := ScanObject(data)
	if (decErr == nil) != (scanErr == nil) {
		t.Fatalf("DecodeObject err %v, ScanObject err %v on %x", decErr, scanErr, data)
	}
	if decErr != nil {
		return
	}
	if string(id) != row.ID || !bytes.Equal(rest, wantRest) {
		t.Fatalf("ScanObject: id %q rest %d bytes, DecodeObject: id %q rest %d bytes", id, len(rest), row.ID, len(wantRest))
	}
	got, tail, err := vclock.DecodeVersion(vv)
	if err != nil || len(tail) != 0 || !reflect.DeepEqual(got, row.VV) {
		t.Fatalf("vector bytes decode to %v (%d left, %v), the row's is %v", got, len(tail), err, row.VV)
	}
}

// scanSeeds are TestDecodeObjectRejectsDamage's cases: every edge row
// whole, cut at every offset, and with 2^60 stamped over every position.
func scanSeeds() [][]byte {
	var out [][]byte
	for _, row := range codecEdgeRows() {
		enc := AppendObject(nil, row)
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

func TestScanObjectMatchesDecode(t *testing.T) {
	for _, data := range scanSeeds() {
		checkScanMatchesDecode(t, data)
	}
	enc := AppendObject(nil, codecFixtureRow(42))
	if n := testing.AllocsPerRun(100, func() { _, _, _, _ = ScanObject(enc) }); n != 0 {
		t.Fatalf("ScanObject allocates %v times per row", n)
	}
}

func FuzzScanObjectMatchesDecode(f *testing.F) {
	for i, data := range scanSeeds() {
		if i%7 == 0 { // a spread of them; TestScanObjectMatchesDecode runs all
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkScanMatchesDecode(t, data) })
}

// TestAppendObjectAllocs: encoding a row into a buffer with room sorts its
// keys and sites on the stack. Rows and vectors too wide for that spill to
// the heap and still come out sorted.
func TestAppendObjectAllocs(t *testing.T) {
	row := codecFixtureRow(42)
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { buf = AppendObject(buf[:0], row) }); n != 0 {
		t.Fatalf("AppendObject allocates %v times per row", n)
	}
	wide := &Object{ID: "w", VV: vclock.Version{}, Fields: map[string]string{}}
	for i := 0; i < 17; i++ {
		wide.VV[fmt.Sprintf("s%02d", (i*7)%17)] = uint64(i + 1)
		wide.Fields[fmt.Sprintf("k%02d", (i*5)%17)] = "v"
	}
	enc := AppendObject(nil, wide)
	got, _, err := DecodeObject(enc)
	if err != nil || !reflect.DeepEqual(got.VV, wide.VV) || !reflect.DeepEqual(got.Fields, wide.Fields) {
		t.Fatalf("a 17-field, 17-site row round-tripped as %+v, %v", got, err)
	}
	last := -1
	for _, name := range []string{"s", "k"} { // the vector, then the fields
		for i := 0; i < 17; i++ {
			at := bytes.Index(enc, []byte(fmt.Sprintf("%s%02d", name, i)))
			if at <= last {
				t.Fatalf("%s%02d is encoded at %d, not after its predecessor at %d", name, i, at, last)
			}
			last = at
		}
	}
}

// raceEnabled is set by race_test.go when the tests run under -race.
var raceEnabled bool

// referenceDecodeObject is DecodeObject as it was written before it
// scanned first and copied once: one string per field, each read and
// checked as it comes. It is the reference the one decoder is held to.
func referenceDecodeObject(data []byte) (*Object, []byte, error) {
	o := &Object{}
	var err error
	if o.ID, data, err = wire.ConsumeString(data); err != nil {
		return nil, data, err
	}
	if o.Schema, data, err = wire.ConsumeString(data); err != nil {
		return nil, data, err
	}
	if o.Owner, data, err = wire.ConsumeString(data); err != nil {
		return nil, data, err
	}
	if o.Site, data, err = wire.ConsumeString(data); err != nil {
		return nil, data, err
	}
	if o.Version, data, err = wire.ConsumeUint64(data); err != nil {
		return nil, data, err
	}
	if o.VV, data, err = vclock.DecodeVersion(data); err != nil {
		return nil, data, err
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

// checkDecodeMatchesReference: on any input both decoders fail, or both
// succeed with equal rows and equal remainders.
func checkDecodeMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	want, wantRest, refErr := referenceDecodeObject(data)
	got, rest, err := DecodeObject(data)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("reference err %v, DecodeObject err %v on %x", refErr, err, data)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) || !bytes.Equal(rest, wantRest) {
		t.Fatalf("DecodeObject of %x:\n got %+v, %d bytes left\nwant %+v, %d bytes left", data, got, len(rest), want, len(wantRest))
	}
}

func TestDecodeObjectMatchesReference(t *testing.T) {
	for _, data := range scanSeeds() {
		checkDecodeMatchesReference(t, data)
	}
}

func FuzzDecodeObjectMatchesReference(f *testing.F) {
	for i, data := range scanSeeds() {
		if i%7 == 0 { // a spread of them; TestDecodeObjectMatchesReference runs all
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecodeMatchesReference(t, data) })
}

// scribble overwrites every byte of b.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

// TestDecodedRowOwnsItsBytes: what a decoder returns shares no byte with
// its input, which the caller may reuse the moment the decoder returns.
func TestDecodedRowOwnsItsBytes(t *testing.T) {
	for name, row := range codecEdgeRows() {
		enc := AppendObject(nil, row)
		got, _, err := DecodeObject(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scribble(enc)
		if !reflect.DeepEqual(got, row) {
			t.Fatalf("%s: overwriting the input changed the row:\n got %+v\nwant %+v", name, got, row)
		}

		enc = row.VV.AppendBinary(nil)
		vv, _, err := vclock.DecodeVersion(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scribble(enc)
		if !reflect.DeepEqual(vv, row.VV) {
			t.Fatalf("%s: overwriting the input changed the vector to %v", name, vv)
		}
	}
}

// TestDecodeObjectAllocs: the fixture row is the row itself, its id, one
// text and its two maps — seven allocations, where a string per field took
// eighteen.
func TestDecodeObjectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	enc := AppendObject(nil, codecFixtureRow(42))
	if n := testing.AllocsPerRun(100, func() { _, _, _ = DecodeObject(enc) }); n > 7 {
		t.Fatalf("DecodeObject allocates %v times for the fixture row, want at most 7", n)
	}
}

func BenchmarkDecodeObject(b *testing.B) {
	enc := AppendObject(nil, codecFixtureRow(42))
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	for b.Loop() {
		if _, _, err := DecodeObject(enc); err != nil {
			b.Fatal(err)
		}
	}
}
