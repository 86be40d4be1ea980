package information

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mocca/internal/id"
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

// interchangeSchema is the shared interchange schema as core registers
// it; docSchema is "doc" as every test of the package declares it.
var (
	interchangeSchema = Schema{Name: "mocca-interchange", Fields: []Field{
		{Name: "title", Type: FieldText, Required: true},
		{Name: "body", Type: FieldText},
		{Name: "author", Type: FieldText},
		{Name: "context", Type: FieldText},
	}}
	docSchema = Schema{Name: "doc", Fields: []Field{
		{Name: "title", Type: FieldText, Required: true},
		{Name: "body", Type: FieldText},
	}}
)

// The codec's tests register their schemas, and enrol the sites of a
// 16-site organization on the roster, before any test runs, so the form
// each row takes does not depend on which tests ran before it.
func init() {
	for i := range 16 {
		vclock.Enrol(fmt.Sprintf("s%03d", i))
	}
	for _, s := range []Schema{interchangeSchema, docSchema} {
		if err := NewSchemaRegistry().Register(s); err != nil {
			panic(err)
		}
	}
}

// goldenFixtureRow is AppendObject(codecFixtureRow(42)): 110 bytes in the
// compact form, its schema the 4-byte id 48d68860 and its fields a bitmap
// and four values, where the spelled form takes 149 (goldenSpelledRow) and
// the fixed-width layout before that took 224. logstore's format-1 and
// format-2 tests keep the older bytes.
const goldenFixtureRow = "096f626a3030303034320048d688600675303030343204733030300104733030300109d39b5f4a6aa000000f" +
	"0e73656564206f626a3030303034322373686172656420776f726b696e67206d6174657269616c20666f7220" +
	"61637430303032067530303034320761637430303032"

// goldenSpelledRow is the fixture row under a schema name no one
// registered ("Mocca-Interchange": registered names are lower-case): the
// name's length plus one, the name, and each key beside its value.
const goldenSpelledRow = "096f626a303030303432124d6f6363612d496e7465726368616e67650675303030343204733030300104" +
	"733030300109d39b5f4a6aa000000406617574686f720675303030343204626f64792373686172656420776f" +
	"726b696e67206d6174657269616c20666f72206163743030303207636f6e746578740761637430303032057469" +
	"746c650e73656564206f626a303030303432"

// TestAppendObjectGolden: one codec, two carriers, two forms, and these
// are its bytes.
func TestAppendObjectGolden(t *testing.T) {
	got := AppendObject(nil, codecFixtureRow(42))
	if hex.EncodeToString(got) != goldenFixtureRow {
		t.Fatalf("AppendObject(fixture row) changed:\n got %x\nwant %s", got, goldenFixtureRow)
	}
	spelled := codecFixtureRow(42)
	spelled.Schema = "Mocca-Interchange"
	if enc := AppendObject(nil, spelled); hex.EncodeToString(enc) != goldenSpelledRow {
		t.Fatalf("AppendObject(spelled fixture row) changed:\n got %x\nwant %s", enc, goldenSpelledRow)
	}
	// Appending extends dst and leaves what was there alone.
	if withPrefix := AppendObject([]byte("wal"), codecFixtureRow(42)); !bytes.Equal(withPrefix[3:], got) || string(withPrefix[:3]) != "wal" {
		t.Fatalf("AppendObject did not append: %x", withPrefix)
	}
}

// TestRowBytesBySection pins what each section of the fixture row costs in
// the compact form: the 4-byte schema id and the one-byte bitmap stand
// where the spelled form says the schema's name and four keys. On the
// wire, sites go by roster entry and an id a Space minted by its parts.
func TestRowBytesBySection(t *testing.T) {
	ids, minted := id.New(), codecFixtureRow(42)
	for range 200 {
		minted.ID = ids.Next(idKind)
	}
	enc := AppendObject(nil, codecFixtureRow(42))
	r := enc
	take := func(n int) int { r = r[n:]; return n }
	str := func() int {
		_, rest, err := wire.SkipString(r)
		if err != nil {
			t.Fatal(err)
		}
		return take(len(r) - len(rest))
	}
	id := str()
	if r[0] != 0 {
		t.Fatalf("the fixture row spells its schema: %x", enc)
	}
	schema := take(5)
	owner, site := str(), str()
	_, rest, err := vclock.ScanVersion(r)
	if err != nil {
		t.Fatal(err)
	}
	vector := take(len(r) - len(rest))
	_, rest, err = wire.ConsumeVarint(r[8:])
	if err != nil {
		t.Fatal(err)
	}
	times := take(len(r) - len(rest))
	bitmap := take(1)
	values := len(r)
	got := map[string]int{"id": id, "schema": schema, "owner": owner, "site": site, "vector": vector, "times": times, "bitmap": bitmap, "values": values}
	want := map[string]int{"id": 10, "schema": 5, "owner": 7, "site": 5, "vector": 7, "times": 9, "bitmap": 1, "values": 66}
	if !reflect.DeepEqual(got, want) || len(enc) != 110 {
		t.Fatalf("sections of the %d-byte fixture row: %v, want %v", len(enc), got, want)
	}
	spelled := codecFixtureRow(42)
	spelled.Schema = "Mocca-Interchange"
	if saved := len(AppendObject(nil, spelled)) - len(enc); saved != 39 {
		t.Fatalf("the compact form saves %d bytes of the fixture row, want 39", saved)
	}
	// The wire form says the writer site, s000, by its roster entry in one
	// byte, and the vector in three — a count, the entry, the counter —
	// where the stored form takes five and seven. The fixture's id is no
	// id a Space mints: it is spelled behind its length plus 1, in the
	// same ten bytes. The rest is the same.
	w := AppendWireObject(nil, codecFixtureRow(42))
	at := id + schema + owner
	if w[0] != enc[0]+1 || !bytes.Equal(w[at:at+4], []byte{1, 1, 1, 1}) || !bytes.Equal(w[1:at], enc[1:at]) || !bytes.Equal(w[at+4:], enc[at+site+vector:]) || len(w) != 102 {
		t.Fatalf("the %d-byte wire form of the fixture row: %x, its stored form %x", len(w), w, enc)
	}
	// An id a Space mints past its 127th row — a two-byte sequence — takes
	// 7 bytes in the wire form: the marker, the sequence and the entropy.
	// The stored form keeps its 18: its length and its spelling.
	wantID := binary.BigEndian.AppendUint32(append([]byte{0}, wire.AppendUvarint(nil, 200)...), 0)
	stored, wired := AppendObject(nil, minted), AppendWireObject(nil, minted)
	if len(minted.ID) != 17 || len(stored) != len(enc)+8 || !bytes.Equal(stored[18:], enc[10:]) || string(stored[1:18]) != minted.ID {
		t.Fatalf("the stored form of a row under %q: %x", minted.ID, stored)
	}
	if len(wired) != len(w)-3 || !bytes.Equal(wired[:3], wantID[:3]) || !bytes.Equal(wired[7:], w[10:]) {
		t.Fatalf("the wire form of a row under %q: %x, want its id in 7 bytes, %x…, then %x", minted.ID, wired, wantID[:3], w[10:])
	}
}

// codecEdgeRows are rows at the corners of the format.
func codecEdgeRows() map[string]*Object {
	wide := vclock.Version{}
	for i := 0; i < 18; i++ {
		wide[fmt.Sprintf("s%03d", i)] = uint64(i*i + 1)
	}
	at := time.Unix(0, 708080400123456789).UTC()
	spelled := codecFixtureRow(7)
	spelled.Schema = "Mocca-Interchange" // registered names are lower-case: this one spells its schema
	return map[string]*Object{
		"fixture":         codecFixtureRow(7),
		"fixture spelled": spelled,
		"compact, body only": {ID: "h", Schema: "doc", Owner: "ada", Site: "s0", Version: 1, VV: vclock.Version{"s0": 1},
			Fields: map[string]string{"body": "the second field alone"}, Created: at, Updated: at},
		"nil fields": {ID: "a", Schema: "doc", Owner: "ada", Site: "s0", Version: 3, VV: vclock.Version{"s0": 3}, Created: at, Updated: at},
		"nil vv":     {ID: "b", Schema: "doc", Fields: map[string]string{"k": ""}, Created: at, Updated: at},
		"18-site vv": {ID: "c", Schema: "doc", Site: "s017", Version: wide.Sum(), VV: wide, Fields: map[string]string{"title": "t"}, Created: at, Updated: at.Add(time.Hour)},
		"non-ascii": {ID: "obj-ünï-日本", Schema: "dök", Owner: "jürgen", Site: "köln",
			Version: 1, VV: vclock.Version{"köln": 1}, Fields: map[string]string{"títle": "naïve ☃", "": "empty key"}, Created: at, Updated: at},
		"before 1970":            {ID: "d", Version: 1, VV: vclock.Version{"s": 1}, Created: time.Unix(0, -5).UTC(), Updated: time.Unix(0, -1).UTC()},
		"updated before created": {ID: "f", Version: 2, VV: vclock.Version{"s": 2}, Created: at, Updated: at.Add(-time.Hour)},
		"far apart":              {ID: "g", Version: 1, VV: vclock.Version{"s": 1}, Created: time.Unix(0, math.MinInt64+1).UTC(), Updated: time.Unix(0, math.MaxInt64).UTC()},
	}
}

func TestObjectCodecRoundTrip(t *testing.T) {
	for _, form := range rowForms {
		t.Run(form.name, func(t *testing.T) { roundTrip(t, form) })
	}
}

// rowForm is one form of the row codec: the stored one, and the wire one
// that says sites by their roster entries.
type rowForm struct {
	name   string
	roster bool
	append func([]byte, *Object) []byte
	decode func([]byte) (*Object, []byte, error)
}

var rowForms = []rowForm{
	{"stored", false, AppendObject, DecodeObject},
	{"wire", true, AppendWireObject, DecodeWireObject},
}

// roundTrip: every edge row in form reads back as itself, with the bytes
// after it left, and encodes again to the same bytes.
func roundTrip(t *testing.T, form rowForm) {
	for name, row := range codecEdgeRows() {
		enc := form.append(nil, row)
		got, rest, err := form.decode(append(enc, "tail"...))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(rest) != "tail" {
			t.Fatalf("%s: rest = %q, want the bytes after the row", name, rest)
		}
		if !reflect.DeepEqual(got, row) {
			t.Fatalf("%s: round trip\n got %+v\nwant %+v", name, got, row)
		}
		if again := form.append(nil, got); !bytes.Equal(again, enc) {
			t.Fatalf("%s: re-encoding differs", name)
		}
	}
	// Empty and nil maps are one encoding; both decode as nil.
	empty := &Object{ID: "e", Fields: map[string]string{}, VV: vclock.Version{}}
	if !bytes.Equal(form.append(nil, empty), form.append(nil, &Object{ID: "e"})) {
		t.Fatal("empty maps encode differently from nil maps")
	}
	got, _, err := form.decode(form.append(nil, empty))
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

// Hostile rows, each refused before anything is sized by what it says.
var (
	// An id length in 11 bytes.
	rowElevenByteUvarint = []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 'x'}
	// A 9-byte schema in 3 bytes.
	rowStringPastEnd = []byte{1, 'x', 10, 'd', 'o', 'c'}
	// 2^16 vector entries, then 2^16 fields, in a few bytes each.
	rowVectorPastEnd = slices.Concat([]byte{1, 'x', 1, 0, 0, 0x80, 0x80, 0x04}, make([]byte, 12))
	rowFieldsPastEnd = slices.Concat([]byte{1, 'x', 1, 0, 0, 0}, make([]byte, 8), []byte{0, 0x80, 0x80, 0x04}, make([]byte, 12))
	// An update whose delta from the creation time is past 64 bits.
	rowDeltaOverflow = slices.Concat([]byte{1, 'x', 1, 0, 0, 0}, make([]byte, 8),
		[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0})
	// A compact row with a schema id cut short, and one whose bitmap says
	// more values than the bytes can hold.
	rowSchemaIDPastEnd = []byte{1, 'x', 0, 0x48, 0xd6}
	rowValuesPastEnd   = slices.Concat([]byte{1, 'x', 0, 0x48, 0xd6, 0x88, 0x60, 0, 0, 0}, make([]byte, 8), []byte{0, 0x0F, 0, 0})
	hostileRows        = [][]byte{rowElevenByteUvarint, rowStringPastEnd, rowVectorPastEnd, rowFieldsPastEnd, rowDeltaOverflow, rowSchemaIDPastEnd, rowValuesPastEnd}
)

// rowSiteTwice is no row AppendObject writes, but a row all the same: its
// vector names one site twice, and the later entry stands — its Version is
// the sum of the vector it decodes to, 2, not of the entries it read.
var rowSiteTwice = slices.Concat([]byte{1, 'x', 1, 0, 0, 2, 1, 'a', 1, 1, 'a', 2}, make([]byte, 8), []byte{0, 0})

// Rows ScanObject walks but DecodeObject refuses: a schema id no one
// registered, and a bitmap setting a bit past the fixture schema's four
// fields.
var (
	rowUnknownSchema = slices.Concat([]byte{1, 'x', 0, 0xde, 0xad, 0xbe, 0xef, 0, 0, 0}, make([]byte, 8), []byte{0, 1, 1, 'v'})
	rowBitPastFields = slices.Concat([]byte{1, 'x', 0, 0x48, 0xd6, 0x88, 0x60, 0, 0, 0}, make([]byte, 8), []byte{0, 0x10, 1, 'v'})
)

// TestDecodeObjectRejectsDamage: rows arrive off the network, so a cut or a
// hostile count must be an error wrapping wire's — never a panic, never an
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
	for _, bad := range hostile(enc) {
		_, _, _ = DecodeObject(bad) // an error or a row with a changed value: not a panic
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("decoding hostile rows allocated %d bytes", grew)
	}
	for i, data := range hostileRows {
		name := []string{"11-byte uvarint", "string past end", "vector past end", "fields past end", "delta overflow", "schema id past end", "values past end"}[i]
		_, _, err := DecodeObject(data)
		if !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrOversize) {
			t.Fatalf("%s: DecodeObject err %v, want wire's error", name, err)
		}
		if _, _, _, scanErr := ScanObject(data); scanErr == nil || scanErr.Error() != err.Error() {
			t.Fatalf("%s: ScanObject err %v, DecodeObject err %v", name, scanErr, err)
		}
	}
	// Each is refused for what it is meant to be: with its damage mended it
	// is a row.
	if _, _, err := DecodeObject(slices.Concat([]byte{1, 'x', 1, 0, 0, 0}, make([]byte, 8), []byte{0, 0})); err != nil {
		t.Fatalf("the smallest row: %v", err)
	}
	if _, _, err := DecodeObject(slices.Concat([]byte{1, 'x', 0, 0x48, 0xd6, 0x88, 0x60, 0, 0, 0}, make([]byte, 8), []byte{0, 0x0F, 0, 0, 0, 0})); err != nil {
		t.Fatalf("the smallest compact row with every field: %v", err)
	}
	// What only DecodeObject refuses, it refuses for what it is.
	if _, _, err := DecodeObject(rowUnknownSchema); !errors.Is(err, ErrUnknownSchema) {
		t.Fatalf("a row naming an unregistered schema id: %v, want ErrUnknownSchema", err)
	}
	if _, _, err := DecodeObject(rowBitPastFields); !errors.Is(err, wire.ErrBadBody) {
		t.Fatalf("a bitmap past the schema's fields: %v, want wire.ErrBadBody", err)
	}
}

// hostile is enc damaged at every offset in the ways a varint codec can
// be: cut there, a byte there raised to 0x7F, a byte below 0x80 there said
// in two bytes (a uvarint no encoder writes, which still decodes), and,
// inserted there, an 11-byte uvarint, a 10-byte one past 64 bits and
// 2^64−1 in ten bytes.
func hostile(enc []byte) [][]byte {
	var out [][]byte
	inserts := [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	}
	for i := 0; i < len(enc); i++ {
		out = append(out, enc[:i])
		raised := bytes.Clone(enc)
		raised[i] = 0x7F
		out = append(out, raised)
		if enc[i] < 0x80 {
			out = append(out, slices.Concat(enc[:i], []byte{enc[i] | 0x80, 0}, enc[i+1:]))
		}
		for _, in := range inserts {
			out = append(out, slices.Concat(enc[:i], in, enc[i:]))
		}
	}
	return out
}

// checkScanMatchesDecode is the walk's whole contract, in each form:
// scanObject fails on exactly the inputs the form's decoder fails on but
// for what the schema table decides — an unregistered schema id, a bitmap
// past the schema's fields, which only the decoder refuses — and on the
// rest it finds the id, the vector's bytes and the end of the row where
// the decoder does. ScanObject is the stored form's walk.
func checkScanMatchesDecode(t *testing.T, data []byte) {
	t.Helper()
	for _, form := range rowForms {
		row, wantRest, decErr := form.decode(data)
		sc, rest, scanErr := scanObject(data, form.roster)
		if !form.roster {
			var id, vv []byte
			id, vv, rest, scanErr = ScanObject(data)
			sc.id.spelled, sc.vv = id, vv
		}
		tableOnly := scanErr == nil && (errors.Is(decErr, ErrUnknownSchema) || errors.Is(decErr, wire.ErrBadBody))
		if (decErr == nil) != (scanErr == nil) && !tableOnly {
			t.Fatalf("%s: decoder err %v, scan err %v on %x", form.name, decErr, scanErr, data)
		}
		if decErr != nil {
			continue
		}
		if sc.id.String() != row.ID || !bytes.Equal(rest, wantRest) {
			t.Fatalf("%s: scan: id %q rest %d bytes, decoder: id %q rest %d bytes", form.name, sc.id, len(rest), row.ID, len(wantRest))
		}
		decodeVV := vclock.DecodeVersion
		if form.roster {
			decodeVV = vclock.DecodeWire
		}
		got, tail, err := decodeVV(sc.vv)
		if err != nil || len(tail) != 0 || !reflect.DeepEqual(got, row.VV) {
			t.Fatalf("%s: vector bytes decode to %v (%d left, %v), the row's is %v", form.name, got, len(tail), err, row.VV)
		}
	}
}

// Wire-form rows the decoder refuses for how they say a site: the writer
// site as an entry past any roster, and vectors out of name order, naming
// a site twice, and spelling s000, which the roster holds.
var (
	rowWireHead        = []byte{2, 'x', 1, 0}                         // id spelled, the empty schema spelled, no owner
	rowWireTail        = slices.Concat(make([]byte, 8), []byte{0, 0}) // created, updated, no fields
	rowSitePastRoster  = slices.Concat(rowWireHead, wire.AppendUvarint(nil, vclock.MaxRoster+1), []byte{0}, rowWireTail)
	rowVectorUnsorted  = slices.Concat(rowWireHead, []byte{2, 2, 2, 1, 1, 1}, rowWireTail) // s001 before s000
	rowVectorTwice     = slices.Concat(rowWireHead, []byte{1, 2, 1, 1, 1, 2}, rowWireTail)
	rowVectorSpelled   = slices.Concat(rowWireHead, []byte{1, 1, 0, 4, 's', '0', '0', '0', 1}, rowWireTail)
	wireRefusedRows    = [][]byte{rowSitePastRoster, rowVectorUnsorted, rowVectorTwice, rowVectorSpelled, rowIDSequenceZero, rowIDSpelledMinted}
	wireRefusedReasons = []error{vclock.ErrUnknownSite, vclock.ErrBadVersion, vclock.ErrBadVersion, vclock.ErrBadVersion, wire.ErrBadBody, wire.ErrBadBody}
)

// scanSeeds are TestDecodeObjectRejectsDamage's cases — its hostile rows —
// a vector naming a site twice, the rows the wire form refuses for how
// they say a site or an id, and a row under each edge id in each form;
// then every edge row whole and damaged every way hostile damages it, in
// each form.
func scanSeeds() [][]byte {
	out := slices.Concat(hostileRows, [][]byte{rowSiteTwice, rowUnknownSchema, rowBitPastFields}, wireRefusedRows)
	for _, form := range rowForms {
		for _, row := range edgeIDRows() {
			out = append(out, form.append(nil, row))
		}
	}
	for _, form := range rowForms {
		for _, name := range slices.Sorted(maps.Keys(codecEdgeRows())) {
			enc := form.append(nil, codecEdgeRows()[name])
			out = append(out, append(bytes.Clone(enc), "tail"...))
			out = append(out, hostile(enc)...)
		}
	}
	return out
}

// seedsHeld is how many of scanSeeds' first seeds the fuzz targets keep
// whole: the hostile and refused rows, and the edge ids'.
var seedsHeld = len(hostileRows) + 3 + len(wireRefusedRows) + len(rowForms)*len(edgeIDRows())

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
		if i < seedsHeld || i%7 == 0 { // the hostile, refused and edge-id rows and a spread of the rest; TestScanObjectMatchesDecode runs all
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

// referenceDecodeObject is the string-per-field decoder: every field read
// and checked as it comes, with wire's uvarint readers and
// vclock.DecodeVersion — or, in the wire form, a site at a time with
// vclock.ConsumeSite, each vector site after the one before it. It is the
// reference the one decoder is held to.
func referenceDecodeObject(data []byte, roster bool) (*Object, []byte, error) {
	o := &Object{}
	var err error
	if roster {
		o.ID, data, err = referenceWireID(data)
	} else {
		o.ID, data, err = wire.ConsumeString(data)
	}
	if err != nil {
		return nil, data, err
	}
	var marker uint64
	if marker, data, err = wire.ConsumeUvarint(data); err != nil {
		return nil, data, err
	}
	var sh *shape
	switch {
	case marker == 0:
		if len(data) < 4 {
			return nil, data, wire.ErrTruncated
		}
		id := uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3])
		data = data[4:]
		if sh = shapes.Load().byID[id]; sh == nil {
			return nil, data, ErrUnknownSchema
		}
		o.Schema = sh.name
	case marker-1 >= wire.MaxStringLen:
		return nil, data, wire.ErrOversize
	case marker-1 > uint64(len(data)):
		return nil, data, wire.ErrTruncated
	default:
		o.Schema, data = string(data[:marker-1]), data[marker-1:]
	}
	if o.Owner, data, err = wire.ConsumeString(data); err != nil {
		return nil, data, err
	}
	if roster {
		if o.VV, data, err = referenceWireVector(data, &o.Site); err != nil {
			return nil, data, err
		}
	} else {
		if o.Site, data, err = wire.ConsumeString(data); err != nil {
			return nil, data, err
		}
		if o.VV, data, err = vclock.DecodeVersion(data); err != nil {
			return nil, data, err
		}
	}
	o.Version = o.VV.Sum()
	if len(data) < 8 {
		return nil, data, wire.ErrTruncated
	}
	created := binary.BigEndian.Uint64(data)
	data = data[8:]
	var delta int64
	if delta, data, err = wire.ConsumeVarint(data); err != nil {
		return nil, data, err
	}
	o.Created = time.Unix(0, int64(created)).UTC()
	o.Updated = time.Unix(0, int64(created)+delta).UTC()
	var nfields uint64
	if nfields, data, err = wire.ConsumeUvarint(data); err != nil {
		return nil, data, err
	}
	if sh != nil { // nfields is the bitmap: a value per bit, in declared order
		for i := 0; i < 64; i++ {
			if nfields&(1<<i) == 0 {
				continue
			}
			if i >= len(sh.fields) {
				return nil, data, wire.ErrBadBody
			}
			var v string
			if v, data, err = wire.ConsumeString(data); err != nil {
				return nil, data, err
			}
			if o.Fields == nil {
				o.Fields = map[string]string{}
			}
			o.Fields[sh.fields[i]] = v
		}
		return o, data, nil
	}
	// A field is two length prefixes at least.
	if nfields > uint64(len(data))/2 {
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

// referenceMinted is the shape of an id a Space mints, said once more,
// apart from the codec's own reading of it.
var referenceMinted = regexp.MustCompile(`^info-[1-9][0-9]*-[0-9a-f]{8}$`)

// referenceWireID reads a wire-form id: after a 0 marker its sequence,
// never 0, and its entropy, formatted as id.Generator formats them; after
// any other, the id spelled, which must not be one a Space mints.
func referenceWireID(data []byte) (string, []byte, error) {
	marker, data, err := wire.ConsumeUvarint(data)
	if err != nil {
		return "", data, err
	}
	if marker == 0 {
		seq, data, err := wire.ConsumeUvarint(data)
		switch {
		case err != nil:
			return "", data, err
		case seq == 0:
			return "", data, wire.ErrBadBody
		case len(data) < 4:
			return "", data, wire.ErrTruncated
		}
		return fmt.Sprintf("info-%d-%08x", seq, binary.BigEndian.Uint32(data)), data[4:], nil
	}
	if marker-1 >= wire.MaxStringLen {
		return "", data, wire.ErrOversize
	}
	if marker-1 > uint64(len(data)) {
		return "", data, wire.ErrTruncated
	}
	id := string(data[:marker-1])
	if referenceMinted.MatchString(id) {
		if _, err := strconv.ParseUint(strings.Split(id, "-")[1], 10, 64); err == nil { // a sequence below 2⁶⁴
			return "", data, wire.ErrBadBody
		}
	}
	return id, data[marker-1:], nil
}

// referenceWireVector reads a wire-form row's writer site into *site, then
// its vector.
func referenceWireVector(data []byte, site *string) (vclock.Version, []byte, error) {
	var err error
	if *site, data, err = vclock.ConsumeSite(data); err != nil {
		return nil, data, err
	}
	n, data, err := wire.ConsumeUvarint(data)
	if err != nil {
		return nil, data, err
	}
	if n > uint64(len(data))/2 { // an entry is two bytes at least
		return nil, data, wire.ErrTruncated
	}
	var v vclock.Version
	prev := ""
	for i := uint64(0); i < n; i++ {
		var s string
		var c uint64
		if s, data, err = vclock.ConsumeSite(data); err != nil {
			return nil, data, err
		}
		if i > 0 && s <= prev {
			return nil, data, vclock.ErrBadVersion
		}
		if c, data, err = wire.ConsumeUvarint(data); err != nil {
			return nil, data, err
		}
		if v == nil {
			v = vclock.Version{}
		}
		v[s], prev = c, s
	}
	return v, data, nil
}

// checkDecodeMatchesReference: on any input, in each form, both decoders
// fail, or both succeed with equal rows and equal remainders. A row the
// wire form reads encodes to bytes that read back to it and encode to
// themselves, and its vector encodes to the bytes it was read from but
// for uvarints said in more bytes than they need: a vector has one wire
// encoding.
func checkDecodeMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	for _, form := range rowForms {
		want, wantRest, refErr := referenceDecodeObject(data, form.roster)
		got, rest, err := form.decode(data)
		if (refErr == nil) != (err == nil) {
			t.Fatalf("%s: reference err %v, decoder err %v on %x", form.name, refErr, err, data)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) || !bytes.Equal(rest, wantRest) {
			t.Fatalf("%s: decoding %x:\n got %+v, %d bytes left\nwant %+v, %d bytes left", form.name, data, got, len(rest), want, len(wantRest))
		}
		if !form.roster {
			continue
		}
		again := AppendWireObject(nil, got)
		back, tail, err := DecodeWireObject(again)
		if err != nil || len(tail) != 0 || !reflect.DeepEqual(back, got) || !bytes.Equal(AppendWireObject(nil, back), again) {
			t.Fatalf("wire: %+v encodes to %x, which reads back as %+v (%v)", got, again, back, err)
		}
		sc, _, _ := scanObject(data, true)
		if vv := got.VV.AppendWire(nil); len(vv) > len(sc.vv) || len(vv) == len(sc.vv) && !bytes.Equal(vv, sc.vv) {
			t.Fatalf("wire: the vector read from %x encodes to %x", sc.vv, vv)
		}
	}
}

func TestDecodeObjectMatchesReference(t *testing.T) {
	for _, data := range scanSeeds() {
		checkDecodeMatchesReference(t, data)
	}
	if o, _, err := DecodeObject(rowSiteTwice); err != nil || o.Version != 2 || len(o.VV) != 1 || o.VV["a"] != 2 {
		t.Fatalf("a vector naming a site twice decoded as %+v, %v", o, err)
	}
	for i, bad := range wireRefusedRows {
		if _, _, err := DecodeWireObject(bad); !errors.Is(err, wireRefusedReasons[i]) {
			t.Fatalf("wire row %x: %v, want %v", bad, err, wireRefusedReasons[i])
		}
	}
	// Mended, each is a row.
	for _, mended := range [][]byte{
		slices.Concat(rowWireHead, []byte{1, 0}, rowWireTail),
		slices.Concat(rowWireHead, []byte{1, 2, 1, 1, 2, 1}, rowWireTail),
		slices.Concat(rowWireHead, []byte{1, 1, 0, 4, 's', '9', '9', '9', 1}, rowWireTail),
		slices.Concat([]byte{0, 1, 0xe4, 0x19, 0x4b, 0x6b}, rowWireBody),
		slices.Concat([]byte{16}, []byte("info-0-e4194b6b"), rowWireBody),
	} {
		if _, _, err := DecodeWireObject(mended); err != nil {
			t.Fatalf("wire row %x: %v", mended, err)
		}
	}
}

func FuzzDecodeObjectMatchesReference(f *testing.F) {
	for i, data := range scanSeeds() {
		if i < seedsHeld || i%7 == 0 { // the hostile, refused and edge-id rows and a spread of the rest; TestDecodeObjectMatchesReference runs all
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
	// Its wire form takes its sites from the roster: no copy of them. An
	// id said by its parts is rebuilt in one allocation, as a spelled one
	// is copied in one.
	minted := codecFixtureRow(42)
	minted.ID = "info-4711-3ad1e85f"
	for _, row := range []*Object{codecFixtureRow(42), minted} {
		enc = AppendWireObject(nil, row)
		if n := testing.AllocsPerRun(100, func() { _, _, _ = DecodeWireObject(enc) }); n > 7 {
			t.Fatalf("DecodeWireObject allocates %v times for the fixture row under %q, want at most 7", n, row.ID)
		}
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

// TestRegisterBesideCodec: registering schemas while other goroutines
// encode and decode rows is safe — the codec reads the table it loaded,
// whole — and leaves every row already in the table its bytes.
func TestRegisterBesideCodec(t *testing.T) {
	want := AppendObject(nil, codecFixtureRow(42))
	done := make(chan struct{})
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			var buf []byte
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				buf = AppendObject(buf[:0], codecFixtureRow(42))
				got, _, err := DecodeObject(buf)
				if err == nil && !bytes.Equal(buf, want) {
					err = fmt.Errorf("the fixture row encoded as %x", buf)
				}
				if err == nil && !reflect.DeepEqual(got, codecFixtureRow(42)) {
					err = fmt.Errorf("the fixture row decoded as %+v", got)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		r := NewSchemaRegistry()
		s := Schema{Name: fmt.Sprintf("race-%d", i), Fields: []Field{{Name: "title"}, {Name: fmt.Sprintf("f%d", i)}}}
		if err := r.Register(s); err != nil { // under -count, again: the same definition is no conflict
			t.Fatal(err)
		}
		row := &Object{ID: "r", Schema: s.Name, Fields: map[string]string{"title": "t"}}
		if enc := AppendObject(nil, row); enc[2] != 0 {
			t.Fatalf("a row of the schema just registered spells it: %x", enc)
		}
	}
	close(done)
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var enrolRuns atomic.Int64

// TestEnrolBesideCodec: enrolling sites while other goroutines encode and
// decode rows in both forms is safe — the codec reads the roster it
// loaded, whole — and leaves every row whose sites were already enrolled
// its bytes.
func TestEnrolBesideCodec(t *testing.T) {
	row := codecFixtureRow(42)
	row.VV = vclock.Version{"s000": 1, "s003": 2}
	row.Version = 3
	want := AppendWireObject(nil, row)
	done := make(chan struct{})
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			var buf []byte
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				for _, form := range rowForms {
					buf = form.append(buf[:0], row)
					got, _, err := form.decode(buf)
					if err == nil && form.roster && !bytes.Equal(buf, want) {
						err = fmt.Errorf("the row encoded as %x", buf)
					}
					if err == nil && !reflect.DeepEqual(got, row) {
						err = fmt.Errorf("the row decoded as %+v", got)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	run := enrolRuns.Add(1) // names of its own for each run: the roster outlives the test
	for i := 0; i < 200; i++ {
		site := fmt.Sprintf("enrol-%d-%d", run, i)
		spelled := AppendWireObject(nil, &Object{ID: "r", Site: site})
		vclock.Enrol(site)
		if enc := AppendWireObject(nil, &Object{ID: "r", Site: site}); len(enc) >= len(spelled) {
			t.Fatalf("a row of the site just enrolled spells it: %x", enc)
		}
	}
	close(done)
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRegisterKeepsOneShapePerName: a name in the codec's table has one
// field list. The same definition again, from any registry, is no
// conflict; another field list under the name is refused, and the table
// keeps the first.
func TestRegisterKeepsOneShapePerName(t *testing.T) {
	if err := NewSchemaRegistry().Register(docSchema); err != nil {
		t.Fatalf("the same definition again: %v", err)
	}
	narrow := Schema{Name: "DOC", Fields: []Field{{Name: "title", Type: FieldText, Required: true}}}
	r := NewSchemaRegistry()
	if err := r.Register(narrow); !errors.Is(err, ErrSchemaConflict) {
		t.Fatalf("doc with another field list: %v, want ErrSchemaConflict", err)
	}
	if _, err := r.Schema("doc"); !errors.Is(err, ErrUnknownSchema) {
		t.Fatalf("the refused schema is in its registry: %v", err)
	}
	row := &Object{ID: "r", Schema: "doc", Fields: map[string]string{"body": "b"}}
	got, _, err := DecodeObject(AppendObject(nil, row))
	if err != nil || !reflect.DeepEqual(got.Fields, row.Fields) {
		t.Fatalf("a doc row with a body round-tripped as %+v, %v", got, err)
	}
}

var learnRuns atomic.Int64

// TestLearnSchema: a definition a store taught the table decodes the rows
// naming its id, but neither makes the name's rows compact nor holds the
// name — until Register enters the same definition, which then does both.
func TestLearnSchema(t *testing.T) {
	// A name of its own for each run: the table outlives the test.
	name := fmt.Sprintf("learned-memo-%d", learnRuns.Add(1))
	fields := []string{"subject", "to"}
	compact := func() bool {
		_, c, _ := ObjectSchemaID(AppendObject(nil, &Object{ID: "m", Schema: name, Fields: map[string]string{"to": "ada"}}))
		return c
	}
	id, err := LearnSchema(name, fields)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := LearnSchema(name, fields); err != nil || again != id {
		t.Fatalf("the same definition again: %08x, %v; want %08x", again, err, id)
	}
	if gotName, gotFields, ok := SchemaDefinition(id); !ok || gotName != name || !reflect.DeepEqual(gotFields, fields) {
		t.Fatalf("SchemaDefinition(%08x) = %q %q %v", id, gotName, gotFields, ok)
	}
	if err := CheckSchemaIDs([]uint32{id}); err != nil {
		t.Fatalf("a learned id: %v", err)
	}
	if compact() {
		t.Fatal("a learned definition made the name's rows compact")
	}
	// A row another process wrote under the learned definition, setting
	// its second field, decodes.
	enc := binary.BigEndian.AppendUint32(append(wire.AppendString(nil, "m"), 0), id)
	enc = vclock.Version{"s": 1}.AppendBinary(wire.AppendString(wire.AppendString(enc, "ada"), "s"))
	enc = wire.AppendVarint(binary.BigEndian.AppendUint64(enc, 0), 0)
	enc = wire.AppendString(wire.AppendUvarint(enc, 1<<1), "ada")
	got, _, err := DecodeObject(enc)
	if err != nil || got.Schema != name || !reflect.DeepEqual(got.Fields, map[string]string{"to": "ada"}) {
		t.Fatalf("a row of the learned definition decodes as %+v, %v", got, err)
	}
	text := func(n string) Field { return Field{Name: n, Type: FieldText} }
	if err := NewSchemaRegistry().Register(Schema{Name: name, Fields: []Field{text("subject"), text("to")}}); err != nil {
		t.Fatalf("Register the learned definition: %v", err)
	}
	if !compact() {
		t.Fatal("a registered definition left the name's rows spelled")
	}
}
