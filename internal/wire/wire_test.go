package wire

import (
	"bytes"
	"errors"
	"reflect"
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
			if !reflect.DeepEqual(got.Headers, tt.env.Headers) {
				t.Fatalf("headers %v, want %v", got.Headers, tt.env.Headers)
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

func (b binaryBody) MarshalBinary() ([]byte, error) {
	return AppendUint64([]byte{0x80}, b.N), nil
}

func (b *binaryBody) UnmarshalBinary(data []byte) error {
	if len(data) != 9 || data[0] != 0x80 {
		return errors.New("not a binaryBody")
	}
	b.N, _, _ = ConsumeUint64(data[1:])
	return nil
}

// TestBodyFormFollowsTheType: a value with MarshalBinary/UnmarshalBinary
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
