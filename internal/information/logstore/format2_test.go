package logstore

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"mocca/internal/information"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// appendObjectV2 writes a row in format 2, as the row codec wrote every row
// before a row could name its schema by id: the seeds of the format-2
// reader's tests.
func appendObjectV2(dst []byte, o *information.Object) []byte {
	dst = wire.AppendString(dst, o.ID)
	dst = wire.AppendString(dst, o.Schema)
	dst = wire.AppendString(dst, o.Owner)
	dst = wire.AppendString(dst, o.Site)
	dst = o.VV.AppendBinary(dst)
	created := o.Created.UnixNano()
	dst = appendUint64(dst, uint64(created))
	dst = wire.AppendVarint(dst, o.Updated.UnixNano()-created)
	dst = wire.AppendUvarint(dst, uint64(len(o.Fields)))
	for _, k := range slices.Sorted(maps.Keys(o.Fields)) {
		dst = wire.AppendString(dst, k)
		dst = wire.AppendString(dst, o.Fields[k])
	}
	return dst
}

// goldenRowV2 is what the row codec wrote for fixtureRowV1 in format 2
// (information's golden for the fixture row until rows named their schema
// by id). WAL and segment files written by those builds hold rows in
// exactly these bytes.
const goldenRowV2 = "096f626a303030303432116d6f6363612d696e7465726368616e67650675303030343204733030300104" +
	"733030300109d39b5f4a6aa000000406617574686f720675303030343204626f64792373686172656420776f" +
	"726b696e67206d6174657269616c20666f72206163743030303207636f6e746578740761637430303032057469" +
	"746c650e73656564206f626a303030303432"

// TestFormat2ReaderReadsParentBytes: the format-2 reader reads the bytes
// earlier builds wrote, and the seed encoder writes them.
func TestFormat2ReaderReadsParentBytes(t *testing.T) {
	golden, err := hex.DecodeString(goldenRowV2)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendObjectV2(nil, fixtureRowV1()); !bytes.Equal(got, golden) {
		t.Fatalf("appendObjectV2 writes\n%x\nnot the golden\n%x", got, golden)
	}
	got, rest, err := decodeObjectV2(append(bytes.Clone(golden), "tail"...))
	if err != nil || string(rest) != "tail" || !reflect.DeepEqual(got, fixtureRowV1()) {
		t.Fatalf("decodeObjectV2: %+v, rest %q, %v", got, rest, err)
	}
}

// referenceDecodeObjectV2 is the string-per-field decoder of format 2,
// which held the format's decoders to account while it was the codec's:
// every field read and checked as it comes, with wire's uvarint readers
// and vclock.DecodeVersion.
func referenceDecodeObjectV2(data []byte) (*information.Object, []byte, error) {
	o := &information.Object{}
	var err error
	for _, s := range []*string{&o.ID, &o.Schema, &o.Owner, &o.Site} {
		if *s, data, err = wire.ConsumeString(data); err != nil {
			return nil, data, err
		}
	}
	if o.VV, data, err = vclock.DecodeVersion(data); err != nil {
		return nil, data, err
	}
	o.Version = o.VV.Sum()
	var created uint64
	if created, data, err = consumeUint64(data); err != nil {
		return nil, data, err
	}
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

// checkV2MatchesReference: on any input the format-2 reader and the
// reference both fail, or both succeed with the same row and remainder.
func checkV2MatchesReference(t *testing.T, data []byte) {
	t.Helper()
	want, wantRest, refErr := referenceDecodeObjectV2(data)
	got, rest, err := decodeObjectV2(data)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("reference err %v, decodeObjectV2 err %v on %x", refErr, err, data)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) || !bytes.Equal(rest, wantRest) {
		t.Fatalf("decodeObjectV2 of %x:\n got %+v, %d bytes left\nwant %+v, %d bytes left", data, got, len(rest), want, len(wantRest))
	}
}

// v2Seeds are format-2 rows at the corners of the format (v1Seeds' rows),
// whole (with a tail behind them), cut at every offset, with 0x7F over
// every byte and with an 11-byte uvarint inserted at every offset.
func v2Seeds() [][]byte {
	at := time.Unix(0, 708080400123456789).UTC()
	wide := vclock.Version{}
	for i := 0; i < 18; i++ {
		wide[fmt.Sprintf("s%03d", i)] = uint64(i*i + 1)
	}
	rows := []*information.Object{
		fixtureRowV1(),
		{ID: "a", Schema: "doc", Owner: "ada", Site: "s0", VV: vclock.Version{"s0": 3}, Created: at, Updated: at},
		{ID: "b", Schema: "doc", Fields: map[string]string{"k": ""}, Created: at, Updated: at},
		{ID: "c", Schema: "doc", Site: "s017", VV: wide, Fields: map[string]string{"title": "t"}, Created: at, Updated: at.Add(-time.Hour)},
		{ID: "obj-ünï-日本", Schema: "dök", Owner: "jürgen", Site: "köln", VV: vclock.Version{"köln": 1},
			Fields: map[string]string{"títle": "naïve ☃", "": "empty key"}, Created: at, Updated: at},
	}
	eleven := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	var out [][]byte
	for _, row := range rows {
		enc := appendObjectV2(nil, row)
		out = append(out, append(bytes.Clone(enc), "tail"...))
		for i := 0; i < len(enc); i++ {
			raised := bytes.Clone(enc)
			raised[i] = 0x7F
			out = append(out, enc[:i], raised, slices.Concat(enc[:i], eleven, enc[i:]))
		}
	}
	return out
}

func TestFormat2DecodeMatchesReference(t *testing.T) {
	for _, data := range v2Seeds() {
		checkV2MatchesReference(t, data)
	}
}

func FuzzFormat2DecodeMatchesReference(f *testing.F) {
	for i, data := range v2Seeds() {
		if i%7 == 0 { // a spread of them; TestFormat2DecodeMatchesReference runs all
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkV2MatchesReference(t, data) })
}
