package wire

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		env  *Envelope
	}{
		{"minimal", NewEnvelope("ping", "c1", nil)},
		{"with body", NewEnvelope("rpc.req", "c2", []byte(`{"x":1}`))},
		{"empty strings", NewEnvelope("", "", nil)},
		{"unicode", NewEnvelope("kïnd", "çorr", []byte("héllo wörld"))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tt.env.SetHeader("from", "node-a")
			tt.env.SetHeader("to", "node-b")
			data, err := Marshal(tt.env)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Unmarshal(data)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != tt.env.Kind || got.Corr != tt.env.Corr {
				t.Fatalf("got %+v, want %+v", got, tt.env)
			}
			if !bytes.Equal(got.Body, tt.env.Body) {
				t.Fatalf("body %q, want %q", got.Body, tt.env.Body)
			}
			if !slices.Equal(got.headers(), tt.env.headers()) {
				t.Fatalf("headers %v, want %v", got.headers(), tt.env.headers())
			}
		})
	}
}

func TestMarshalDeterministic(t *testing.T) {
	e := NewEnvelope("k", "c", []byte("b"))
	for _, h := range []string{"z", "a", "m", "b", "q"} {
		e.SetHeader(h, h+"-value")
	}
	first, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatal("Marshal is not deterministic across calls")
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	good, err := Marshal(NewEnvelope("k", "c", []byte("body")))
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"bad magic", []byte{0xFF, 0xFF, 1}, ErrBadMagic},
		{"truncated mid-envelope", good[:len(good)-3], ErrTruncated},
		{"version zero", append([]byte{good[0], good[1], 0}, good[3:]...), ErrBadVersion},
		{"future version", append([]byte{good[0], good[1], 99}, good[3:]...), ErrBadVersion},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Unmarshal(tt.data)
			if !errors.Is(err, tt.want) {
				t.Fatalf("Unmarshal error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	good, err := Marshal(NewEnvelope("k", "c", nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(good, 0x00)); err == nil {
		t.Fatal("envelope with trailing bytes accepted")
	}
}

func TestOversizeRejected(t *testing.T) {
	e := NewEnvelope(strings.Repeat("k", maxStringLen), "c", nil)
	if _, err := Marshal(e); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize kind: err = %v, want ErrOversize", err)
	}
	e2 := NewEnvelope("k", "c", make([]byte, maxBodyLen))
	if _, err := Marshal(e2); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize body: err = %v, want ErrOversize", err)
	}
}

func TestVersionDefaulted(t *testing.T) {
	data, err := Marshal(&Envelope{Kind: "k"})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != Version {
		t.Fatalf("Version = %d, want %d", e.Version, Version)
	}
}

func TestBodyHelpers(t *testing.T) {
	type payload struct {
		Name  string   `json:"name"`
		Count int      `json:"count"`
		Tags  []string `json:"tags"`
	}
	in := payload{Name: "report", Count: 3, Tags: []string{"draft", "shared"}}
	b, err := EncodeBody(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := DecodeBody(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round-trip = %+v, want %+v", out, in)
	}
	if err := DecodeBody([]byte("{not json"), &out); err == nil {
		t.Fatal("DecodeBody accepted invalid JSON")
	}
}

// binaryBody has its own body form: a tag byte no JSON text can start
// with, then the value.
type binaryBody struct{ N uint64 }

func (b binaryBody) AppendBinary(dst []byte) ([]byte, error) {
	return AppendUint64(append(dst, 0x80), b.N), nil
}

func (b *binaryBody) UnmarshalBinary(data []byte) error {
	if len(data) != 9 || data[0] != 0x80 {
		return errors.New("not a binaryBody")
	}
	b.N, _, _ = ConsumeUint64(data[1:])
	return nil
}

// TestBodyFormFollowsTheType: a value with AppendBinary/UnmarshalBinary
// travels in its own form, any other value as JSON, and neither decoder
// takes the other's bytes.
func TestBodyFormFollowsTheType(t *testing.T) {
	b, err := EncodeBody(binaryBody{N: 7})
	if err != nil {
		t.Fatal(err)
	}
	if want := AppendUint64([]byte{0x80}, 7); !bytes.Equal(b, want) {
		t.Fatalf("body = %x, want the type's own encoding %x", b, want)
	}
	var out binaryBody
	if err := DecodeBody(b, &out); err != nil || out.N != 7 {
		t.Fatalf("decoded %+v, %v", out, err)
	}
	asJSON, err := EncodeBody(struct{ N uint64 }{7})
	if err != nil || string(asJSON) != `{"N":7}` {
		t.Fatalf("plain struct encoded as %q, %v", asJSON, err)
	}
	if err := DecodeBody(asJSON, &out); err == nil {
		t.Fatal("the binary decoder accepted a JSON body")
	}
	var plain struct{ N uint64 }
	if err := DecodeBody(b, &plain); err == nil {
		t.Fatal("the JSON decoder accepted a binary body")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(kind, corr string, hk, hv string, body []byte) bool {
		if len(kind) >= maxStringLen || len(corr) >= maxStringLen ||
			len(hk) >= maxStringLen || len(hv) >= maxStringLen || len(body) >= maxBodyLen {
			return true // out of scope
		}
		e := NewEnvelope(kind, corr, body)
		e.SetHeader(hk, hv)
		data, err := Marshal(e)
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		v, _ := got.Header(hk)
		return got.Kind == kind && got.Corr == corr && bytes.Equal(got.Body, body) && v == hv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		// Any input must either parse or error; never panic.
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("first"), {}, []byte("third record")}
	for _, p := range payloads {
		var err error
		if buf, err = AppendRecord(buf, p); err != nil {
			t.Fatal(err)
		}
	}
	rest := buf
	for i, want := range payloads {
		payload, next, err := NextRecord(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("record %d = %q, want %q", i, payload, want)
		}
		rest = next
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

// raceEnabled is set by race_test.go when the tests run under -race.
var raceEnabled bool

// TestReadRecordAllocs: with a scratch buffer that already holds a record,
// reading the next one allocates nothing — the header lands in the scratch
// too.
func TestReadRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var stream []byte
	for _, p := range []string{"first", "", "third record"} {
		var err error
		if stream, err = AppendRecord(stream, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream)
	scratch := make([]byte, 0, 64)
	n := testing.AllocsPerRun(100, func() {
		r.Reset(stream)
		for {
			var err error
			if _, scratch, err = ReadRecord(r, scratch); err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatal(err)
				}
				return
			}
		}
	})
	if n != 0 {
		t.Fatalf("reading three records into a warm scratch allocates %v times", n)
	}
}

func TestRecordTruncationAndCorruption(t *testing.T) {
	buf, err := AppendRecord(nil, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NextRecord(buf[:len(buf)-2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn record: %v, want ErrTruncated", err)
	}
	if _, _, err := NextRecord(buf[:RecordOverhead-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn header: %v, want ErrTruncated", err)
	}
	flipped := append([]byte(nil), buf...)
	flipped[len(flipped)-1] ^= 1
	if _, _, err := NextRecord(flipped); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("bit rot: %v, want ErrBadCRC", err)
	}
	badMagic := append([]byte(nil), buf...)
	badMagic[0] ^= 0xFF
	if _, _, err := NextRecord(badMagic); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v, want ErrBadMagic", err)
	}
}

func TestCodecHelpers(t *testing.T) {
	buf := AppendString(nil, "hello")
	buf = AppendUint64(buf, 42)
	s, rest, err := ConsumeString(buf)
	if err != nil || s != "hello" {
		t.Fatalf("ConsumeString = %q, %v", s, err)
	}
	v, rest, err := ConsumeUint64(rest)
	if err != nil || v != 42 || len(rest) != 0 {
		t.Fatalf("ConsumeUint64 = %d, rest %d, %v", v, len(rest), err)
	}
	if _, _, err := ConsumeString([]byte{0, 0}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short string: %v", err)
	}
	if _, _, err := ConsumeUint64([]byte{1}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short uint64: %v", err)
	}
}

// ledgerEnvelope is the shape of the benchmark ledger's fixture envelope (a
// replica reply), with a short stand-in for its sixteen-row body.
func ledgerEnvelope() *Envelope {
	e := NewEnvelope("rpc.reply", "c000042", []byte(`[{"id":"row-1"}]`))
	e.SetHeader("method", "replica.sync")
	return e
}

// TestEnvelopeGolden pins envelope bytes, computed with the map-backed
// Envelope this one replaced: the ledger's fixture, and a traced rpc reply
// carrying the four headers the stack sets.
func TestEnvelopeGolden(t *testing.T) {
	rep := NewEnvelope("rpc.rep", "call-7", []byte(`{"ok":true}`))
	rep.SetHeader("method", "x500.search")
	rep.SetHeader("error", "boom")
	rep.SetHeader("ch.epoch", "3")
	rep.SetHeader("ch.transparencies", "access|location")
	rep.Trace = TraceContext{TraceID: 0x0102030405060708, SpanID: 9, Parent: 10}
	for _, tc := range []struct {
		name string
		env  *Envelope
		want string
	}{
		{"ledger fixture", ledgerEnvelope(), "00d901000000097270632e7265706c7900000007633030303034320001000000066d6574686f640000000c7265706c6963612e73796e63000000105b7b226964223a22726f772d31227d5d"},
		{"traced reply", rep, "00d902000000077270632e7265700000000663616c6c2d3700040000000863682e65706f636800000001330000001163682e7472616e73706172656e636965730000000f6163636573737c6c6f636174696f6e000000056572726f7200000004626f6f6d000000066d6574686f640000000b783530302e7365617263680000000b7b226f6b223a747275657d01020304050607080000000000000009000000000000000a"},
	} {
		got, err := Marshal(tc.env)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != tc.want {
			t.Errorf("%s:\n got %x\nwant %s", tc.name, got, tc.want)
		}
		back, err := Unmarshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := Marshal(back); !bytes.Equal(again, got) {
			t.Errorf("%s: decoded envelope re-encodes to %x", tc.name, again)
		}
	}
}

// TestEnvelopeAllocs: one allocation to encode (the frame), at most three to
// decode (the envelope, the header text; the body aliases the input), and one
// to decode into an envelope the caller reuses (the header text).
func TestEnvelopeAllocs(t *testing.T) {
	e := ledgerEnvelope()
	data, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = Marshal(e) }); n != 1 {
		t.Errorf("Marshal allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = Unmarshal(data) }); n > 3 {
		t.Errorf("Unmarshal allocates %v times, want at most 3", n)
	}
	var into Envelope
	if n := testing.AllocsPerRun(200, func() { _ = into.UnmarshalBinary(data) }); n > 1 {
		t.Errorf("UnmarshalBinary into a reused envelope allocates %v times, want at most 1 (the header text)", n)
	}
	if into.Kind != e.Kind || into.Corr != e.Corr || !bytes.Equal(into.Body, e.Body) {
		t.Errorf("UnmarshalBinary decoded %+v, want %+v", into, *e)
	}
	if n := testing.AllocsPerRun(200, func() {
		rep := NewEnvelope("rpc.rep", "c", nil)
		rep.SetHeader("method", "m")
		rep.SetHeader("error", "e")
		rep.SetHeader("ch.epoch", "2")
		rep.SetHeader("ch.transparencies", "access")
	}); n > 1 {
		t.Errorf("an envelope with the stack's four headers allocates %v times, want the envelope alone", n)
	}
}

// rawFrame builds version-1 envelope bytes with the given header pairs in
// the given order and an empty body, as a foreign encoder might.
func rawFrame(n int, pairs ...string) []byte {
	b := []byte{0x00, 0xd9, Version}
	b = AppendString(AppendString(b, "k"), "c")
	b = append(b, byte(n>>8), byte(n))
	for i := 0; i+1 < len(pairs); i += 2 {
		b = AppendString(AppendString(b, pairs[i]), pairs[i+1])
	}
	return append(b, 0, 0, 0, 0)
}

func TestDuplicateHeaderLastWins(t *testing.T) {
	for _, pairs := range [][]string{
		{"method", "first", "method", "second"},
		{"z", "1", "method", "first", "a", "2", "method", "second"},
		{"f", "1", "e", "2", "d", "3", "method", "first", "c", "4", "b", "5", "method", "second"},
	} {
		e, err := Unmarshal(rawFrame(len(pairs)/2, pairs...))
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := e.Header("method"); !ok || v != "second" {
			t.Errorf("%v: method = %q, %v; want the last value", pairs, v, ok)
		}
		if !slices.IsSortedFunc(e.headers(), func(a, b Header) int { return strings.Compare(a.Key, b.Key) }) {
			t.Errorf("%v: decoded headers out of key order: %v", pairs, e.headers())
		}
		if want := len(pairs)/2 - 1; len(e.headers()) != want {
			t.Errorf("%v: %d headers, want %d", pairs, len(e.headers()), want)
		}
	}
}

// TestHeadersSpillPastInlineRoom: a fifth header and beyond leave the inline
// array and still encode in key order, decode, and answer Header.
func TestHeadersSpillPastInlineRoom(t *testing.T) {
	e := NewEnvelope("k", "c", nil)
	keys := []string{"m", "z", "b", "q", "a", "y", "c", "m"}
	for i, k := range keys {
		e.SetHeader(k, fmt.Sprint(i))
	}
	want := []Header{{"a", "4"}, {"b", "2"}, {"c", "6"}, {"m", "7"}, {"q", "3"}, {"y", "5"}, {"z", "1"}}
	if !slices.Equal(e.headers(), want) {
		t.Fatalf("headers = %v, want %v", e.headers(), want)
	}
	data, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.headers(), want) {
		t.Fatalf("decoded headers = %v, want %v", got.headers(), want)
	}
	for _, h := range want {
		if v, ok := got.Header(h.Key); !ok || v != h.Value {
			t.Errorf("Header(%q) = %q, %v", h.Key, v, ok)
		}
	}
	if _, ok := got.Header("n"); ok {
		t.Error("Header found a key never set")
	}
}

func TestHeaderCountLimit(t *testing.T) {
	e := NewEnvelope("k", "c", nil)
	for i := 0; i < maxHeaders; i++ {
		e.SetHeader(fmt.Sprintf("h%04d", i), "v")
	}
	if _, err := Marshal(e); !errors.Is(err, ErrOversize) {
		t.Fatalf("Marshal with %d headers: err = %v, want ErrOversize", maxHeaders, err)
	}
	if _, err := Unmarshal(rawFrame(maxHeaders)); !errors.Is(err, ErrOversize) {
		t.Fatalf("Unmarshal of a frame claiming %d headers: err = %v, want ErrOversize", maxHeaders, err)
	}
	// One fewer is legal, in whatever order the keys arrive.
	pairs := make([]string, 0, 2*(maxHeaders-1))
	for i := maxHeaders - 1; i > 0; i-- {
		pairs = append(pairs, fmt.Sprintf("h%04d", i), "v")
	}
	got, err := Unmarshal(rawFrame(maxHeaders-1, pairs...))
	if err != nil || len(got.headers()) != maxHeaders-1 {
		t.Fatalf("Unmarshal of %d headers: %d decoded, err %v", maxHeaders-1, len(got.headers()), err)
	}
}

// TestUnmarshalBinaryReplacesEverything: decoding into a used envelope leaves
// nothing of what it held — spilled headers, trace, body — and a frame that
// fails to decode leaves it as it was.
func TestUnmarshalBinaryReplacesEverything(t *testing.T) {
	used := NewEnvelope("old", "c-old", []byte("old body"))
	used.Trace = TraceContext{TraceID: 1, SpanID: 2}
	for i := 0; i < 6; i++ {
		used.SetHeader(fmt.Sprintf("h%d", i), "old")
	}
	want := NewEnvelope("new", "c-new", nil)
	want.SetHeader("method", "m")
	data, err := Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	before := *used
	if err := used.UnmarshalBinary(data[:len(data)-1]); err == nil {
		t.Fatal("a truncated frame decoded")
	}
	if !reflect.DeepEqual(*used, before) {
		t.Fatalf("a failed decode changed the envelope to %+v", *used)
	}
	if err := used.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*used, *want) {
		t.Fatalf("decoded into a used envelope: %+v, want %+v", *used, *want)
	}
}

// TestEnvelopeCopyDoesNotAliasHeaders: header storage is an array inside the
// envelope plus a spill slice replaced on every SetHeader, so a copy taken by
// value and the original can each be changed without the other seeing it —
// with few headers and with many.
func TestEnvelopeCopyDoesNotAliasHeaders(t *testing.T) {
	for _, n := range []int{1, 4, 5, 9} {
		orig := NewEnvelope("k", "c", nil)
		for i := 0; i < n; i++ {
			orig.SetHeader(fmt.Sprintf("h%d", i), "orig")
		}
		cp := *orig
		cp.SetHeader("h0", "copy")
		cp.SetHeader("extra", "copy")
		orig.SetHeader("a-first", "orig")
		for i := 0; i < n; i++ {
			if v, _ := orig.Header(fmt.Sprintf("h%d", i)); v != "orig" {
				t.Errorf("n=%d: original's h%d = %q after the copy changed", n, i, v)
			}
		}
		if _, ok := orig.Header("extra"); ok {
			t.Errorf("n=%d: the copy's new header reached the original", n)
		}
		if _, ok := cp.Header("a-first"); ok {
			t.Errorf("n=%d: the original's new header reached the copy", n)
		}
		if v, _ := cp.Header("h0"); v != "copy" || len(cp.headers()) != n+1 || len(orig.headers()) != n+1 {
			t.Errorf("n=%d: copy has h0=%q and %d headers, original %d", n, v, len(cp.headers()), len(orig.headers()))
		}
	}
}

// TestAppendBodyMatchesEncodeBody: the appended form is the same bytes after
// whatever dst held, for both body forms, and a JSON body carries no newline.
func TestAppendBodyMatchesEncodeBody(t *testing.T) {
	for _, v := range []any{binaryBody{N: 9}, struct{ Name string }{"<x>&"}, []int{1, 2}, "s", nil} {
		want, err := EncodeBody(v)
		if err != nil {
			t.Fatal(err)
		}
		if j, _ := json.Marshal(v); reflect.TypeOf(v) != reflect.TypeOf(binaryBody{}) && !bytes.Equal(want, j) {
			t.Fatalf("EncodeBody(%v) = %q, json.Marshal says %q", v, want, j)
		}
		got, err := AppendBody([]byte("prefix"), v)
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendBody(prefix, %v) = %q, %v; want prefix+%q", v, got, err, want)
		}
	}
	if _, err := AppendBody(nil, func() {}); err == nil {
		t.Fatal("AppendBody encoded a func")
	}
}
