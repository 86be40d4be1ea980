package wire

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// hostileFrames are frames a broken or hostile peer could send, each with
// the error of wire's it must be refused with — before any field it lies
// about sizes an allocation.
func hostileFrames() []struct {
	name  string
	frame []byte
	want  error
} {
	head := []byte{0x00, 0xd9, Version}
	frame := func(parts ...[]byte) []byte { return slices.Concat(append([][]byte{head}, parts...)...) }
	return []struct {
		name  string
		frame []byte
		want  error
	}{
		{"11-byte uvarint", frame([]byte{1}, bytes.Repeat([]byte{0xff}, 10), []byte{1, 0, 0}), ErrOversize},
		{"static index past the table", frame(AppendUvarint(nil, 2*uint64(len(staticStrings))+1), []byte{0, 0, 0}), ErrBadIndex},
		{"literal past the frame end", frame([]byte{1, 2 * 10}, []byte("short")), ErrTruncated},
		{"header count past the bytes", frame([]byte{1, 0}, AppendUvarint(nil, maxHeaders-1), []byte{7, 7, 0}), ErrTruncated},
		{"version-1 frame", []byte{0x00, 0xd9, 1, 0, 0, 0, 1, 'k', 0, 0, 0, 1, 'c', 0, 0, 0, 0, 0, 0}, ErrBadVersion},
	}
}

// TestHostileFramesRefused: each hostile frame is refused with its error,
// allocating nothing but the error: its value, text and boxed arguments.
func TestHostileFramesRefused(t *testing.T) {
	for _, tc := range hostileFrames() {
		if _, err := Unmarshal(tc.frame); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if raceEnabled {
			continue // the race detector's instrumentation allocates
		}
		var into Envelope
		if n := testing.AllocsPerRun(50, func() { _ = into.UnmarshalBinary(tc.frame) }); n > 3 {
			t.Errorf("%s: refusing the frame allocates %v times, want at most 3 (the error)", tc.name, n)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to Unmarshal (which must error or parse,
// never panic) and, when the input parses, re-encodes and re-decodes to
// check the format round-trips losslessly.
func FuzzDecode(f *testing.F) {
	seed := NewEnvelope("rpc.req", "12345", []byte(`{"x":1}`))
	seed.SetHeader("method", "svc.echo")
	seed.SetHeader("ch.epoch", "2")
	data, err := Marshal(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	traced := NewEnvelope("rpc.req", "12346", []byte(`{"y":2}`))
	traced.SetHeader("method", "svc.echo")
	traced.Trace = TraceContext{TraceID: 0xfeedface, SpanID: 7, Parent: 3}
	tdata, err := Marshal(traced)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tdata)
	f.Add(tdata[:len(tdata)-8]) // truncated trace block
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xd9, Version})
	f.Add([]byte{0x00, 0xd9, Version | traceFlag})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	for _, tc := range hostileFrames() {
		f.Add(tc.frame)
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		e, err := Unmarshal(in)
		if err != nil {
			return // malformed input rejected cleanly
		}
		out, err := Marshal(e)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v", err)
		}
		if bound := e.SizeBound(); bound < len(out) {
			t.Fatalf("SizeBound %d is below the encoded size %d", bound, len(out))
		}
		e2, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v", err)
		}
		if e2.Kind != e.Kind || e2.Corr != e.Corr || !bytes.Equal(e2.Body, e.Body) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", e, e2)
		}
		if e2.Trace != e.Trace {
			t.Fatalf("trace context changed: %+v vs %+v", e.Trace, e2.Trace)
		}
		if !slices.Equal(e.headers(), e2.headers()) {
			t.Fatalf("headers changed: %v vs %v", e.headers(), e2.headers())
		}
	})
}

// TestTruncatedEnvelopeNeverPanics decodes every prefix of a fully-featured
// v3 envelope — static and literal strings, headers spilled past the inline
// room, traced and not: each must return an error (or, for the full frame,
// succeed) and none may panic.
func TestTruncatedEnvelopeNeverPanics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		e := NewEnvelope("rpc.req", "7", []byte("0123456789abcdef"))
		e.SetHeader("method", "x500.search")
		e.SetHeader("error", "boom")
		e.SetHeader("ch.epoch", "2")
		e.SetHeader("x-literal", "v")
		if traced {
			e.Trace = TraceContext{TraceID: 1, SpanID: 2, Parent: 3}
		}
		data, err := Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(data); i++ {
			if _, err := Unmarshal(data[:i]); err == nil {
				t.Fatalf("traced=%v: prefix of %d/%d bytes decoded without error", traced, i, len(data))
			}
		}
		if _, err := Unmarshal(data); err != nil {
			t.Fatalf("traced=%v: full envelope failed: %v", traced, err)
		}
	}
}
