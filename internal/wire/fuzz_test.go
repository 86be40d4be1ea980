package wire

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Unmarshal (which must error or parse,
// never panic) and, when the input parses, re-encodes and re-decodes to
// check the format round-trips losslessly.
func FuzzDecode(f *testing.F) {
	seed := NewEnvelope("rpc.req", "call-1-deadbeef", []byte(`{"x":1}`))
	seed.SetHeader("method", "svc.echo")
	seed.SetHeader("ch.epoch", "2")
	data, err := Marshal(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	traced := NewEnvelope("rpc.req", "call-2-cafef00d", []byte(`{"y":2}`))
	traced.SetHeader("method", "svc.echo")
	traced.Trace = TraceContext{TraceID: 0xfeedface, SpanID: 7, Parent: 3}
	tdata, err := Marshal(traced)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tdata)
	f.Add(tdata[:len(tdata)-8]) // truncated trace block
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xd9, 0x01})
	f.Add([]byte{0x00, 0xd9, 0x02})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, in []byte) {
		e, err := Unmarshal(in)
		if err != nil {
			return // malformed input rejected cleanly
		}
		out, err := Marshal(e)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v", err)
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
// envelope: each must return an error (or, for the full frame, succeed) and
// none may panic.
func TestTruncatedEnvelopeNeverPanics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		e := NewEnvelope("rpc.req", "call-7", []byte("0123456789abcdef"))
		e.SetHeader("method", "x500.search")
		e.SetHeader("error", "boom")
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
