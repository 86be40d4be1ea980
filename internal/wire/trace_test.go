package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestUntracedFrameHasNoTraceBlock: an envelope with no trace context
// marshals with the trace flag clear and not one trace byte — byte for byte
// the hand-built v3 layout — and decodes with a zero trace context, so
// telemetry that is off costs the wire nothing.
func TestUntracedFrameHasNoTraceBlock(t *testing.T) {
	e := NewEnvelope("rpc.req", "call-9", []byte{0x81, 7})
	e.SetHeader("method", "svc.get")
	data, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if data[2] != Version {
		t.Fatalf("untraced envelope's version byte is %#x, want %d with no trace flag", data[2], Version)
	}

	var want []byte
	want = binary.BigEndian.AppendUint16(want, 0x0D9)
	want = append(want, Version)
	want = append(want, 2*0+1)                            // kind: static entry 0, rpc.req
	want = append(AppendUvarint(want, 2*6), "call-9"...)  // corr: a 6-byte literal
	want = append(want, 1)                                // one header
	want = append(want, 2*3+1)                            // key: static entry 3, method
	want = append(AppendUvarint(want, 2*7), "svc.get"...) // value: a 7-byte literal
	want = append(want, 2, 0x81, 7)                       // body
	if !bytes.Equal(data, want) {
		t.Fatalf("untraced marshal diverged from the v3 layout:\n got %x\nwant %x", data, want)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Trace.IsZero() || got.Version != Version {
		t.Fatalf("untraced frame decoded with trace %+v, version %d", got.Trace, got.Version)
	}
}

// TestOldVersionsRefused: only netsim carries frames, so nothing speaks the
// version-1 or version-2 layouts any more; a frame of either — untraced or
// traced — is refused, never read as v3.
func TestOldVersionsRefused(t *testing.T) {
	for _, frame := range [][]byte{
		// "rpc.req", "c" and no headers in the old layouts: uint32 string
		// lengths, a uint16 header count, a uint32 body length.
		{0x00, 0xd9, 1, 0, 0, 0, 7, 'r', 'p', 'c', '.', 'r', 'e', 'q', 0, 0, 0, 1, 'c', 0, 0, 0, 0, 0, 0},
		append([]byte{0x00, 0xd9, 2, 0, 0, 0, 1, 'k', 0, 0, 0, 1, 'c', 0, 0, 0, 0, 0, 0}, make([]byte, traceBlockLen)...),
		{0x00, 0xd9, 1 | traceFlag, 1, 2, 0, 0},
	} {
		if _, err := Unmarshal(frame); !errors.Is(err, ErrBadVersion) {
			t.Errorf("version byte %#x: err = %v, want ErrBadVersion", frame[2], err)
		}
	}
}

// TestTracedRoundTrip checks the forward direction: the trace block
// survives marshal/unmarshal exactly, behind the version byte's trace flag.
func TestTracedRoundTrip(t *testing.T) {
	e := NewEnvelope("rpc.req", "call-3", []byte(`{"x":true}`))
	e.SetHeader("method", "replica.push")
	e.Trace = TraceContext{TraceID: 0x0123456789abcdef, SpanID: 42, Parent: 41}
	data, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if data[2] != Version|traceFlag {
		t.Fatalf("traced envelope's version byte is %#x, want %#x", data[2], Version|traceFlag)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != e.Trace {
		t.Fatalf("trace = %+v, want %+v", got.Trace, e.Trace)
	}
	if got.Kind != e.Kind || got.Corr != e.Corr || !bytes.Equal(got.Body, e.Body) {
		t.Fatalf("payload changed across traced round-trip")
	}
	if v, _ := got.Header("method"); v != "replica.push" {
		t.Fatalf("headers changed across traced round-trip: %v", got.headers())
	}
}

// TestTracedVersionWithoutBlockRejected: a frame whose trace flag is set but
// whose trace block is missing or short must fail, never mis-parse.
func TestTracedVersionWithoutBlockRejected(t *testing.T) {
	e := NewEnvelope("k", "c", nil)
	e.Trace = TraceContext{TraceID: 1, SpanID: 2, Parent: 3}
	data, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut <= traceBlockLen; cut++ {
		if _, err := Unmarshal(data[:len(data)-cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// TestFutureVersionRejected: versions past Version stay rejected so a
// future format bump cannot be silently mis-decoded.
func TestFutureVersionRejected(t *testing.T) {
	e := NewEnvelope("k", "c", nil)
	data, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	data[2] = Version + 1
	if _, err := Unmarshal(data); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

// TestTraceContextChild pins the parenting rule used at every hop.
func TestTraceContextChild(t *testing.T) {
	root := TraceContext{TraceID: 10, SpanID: 11}
	child := root.Child(12)
	want := TraceContext{TraceID: 10, SpanID: 12, Parent: 11}
	if child != want {
		t.Fatalf("child = %+v, want %+v", child, want)
	}
	if (TraceContext{}).Child(5).TraceID != 0 {
		t.Fatalf("zero parent should produce zero trace id")
	}
	if !(TraceContext{}).IsZero() || root.IsZero() {
		t.Fatalf("IsZero misbehaves")
	}
}
