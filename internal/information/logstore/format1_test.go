package logstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
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
