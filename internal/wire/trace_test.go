package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestUntracedMarshalIsVersion1 pins the compatibility contract: an
// envelope with no trace context must marshal byte-identically to the
// pre-trace format, so a telemetry-disabled deployment interops with
// (and is indistinguishable from) an old peer.
func TestUntracedMarshalIsVersion1(t *testing.T) {
	e := NewEnvelope("rpc.req", "call-9", []byte(`{"n":1}`))
	e.SetHeader("method", "svc.get")
	data, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if data[2] != Version {
		t.Fatalf("untraced envelope marshalled as version %d, want %d", data[2], Version)
	}

	// Hand-build the legacy frame and compare byte for byte.
	var legacy []byte
	legacy = binary.BigEndian.AppendUint16(legacy, 0x0D9)
	legacy = append(legacy, 1)
	legacy = AppendString(legacy, "rpc.req")
	legacy = AppendString(legacy, "call-9")
	legacy = binary.BigEndian.AppendUint16(legacy, 1)
	legacy = AppendString(legacy, "method")
	legacy = AppendString(legacy, "svc.get")
	legacy = binary.BigEndian.AppendUint32(legacy, 7)
	legacy = append(legacy, `{"n":1}`...)
	if !bytes.Equal(data, legacy) {
		t.Fatalf("untraced marshal diverged from legacy layout:\n got %x\nwant %x", data, legacy)
	}
}

// TestLegacyEnvelopeDecodesWithZeroTrace covers the backward direction:
// version-1 frames (from an old peer or a pre-trace log) decode cleanly
// and report a zero trace context.
func TestLegacyEnvelopeDecodesWithZeroTrace(t *testing.T) {
	e := NewEnvelope("replica.sync", "sync-1", []byte("payload"))
	data, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("legacy decode: %v", err)
	}
	if !got.Trace.IsZero() {
		t.Fatalf("legacy envelope decoded with trace %+v", got.Trace)
	}
	if got.Version != Version {
		t.Fatalf("version = %d, want %d", got.Version, Version)
	}
}

// TestTracedRoundTrip checks the forward direction: the trace block
// survives marshal/unmarshal exactly and bumps the version to 2.
func TestTracedRoundTrip(t *testing.T) {
	e := NewEnvelope("rpc.req", "call-3", []byte(`{"x":true}`))
	e.SetHeader("method", "placement.write")
	e.Trace = TraceContext{TraceID: 0x0123456789abcdef, SpanID: 42, Parent: 41}
	data, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if data[2] != TracedVersion {
		t.Fatalf("traced envelope marshalled as version %d, want %d", data[2], TracedVersion)
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
	if v, _ := got.Header("method"); v != "placement.write" {
		t.Fatalf("headers changed across traced round-trip: %v", got.headers())
	}
}

// TestTracedVersionWithoutBlockRejected: a version-2 frame whose trace
// block is missing or short must fail, never mis-parse.
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

// TestFutureVersionRejected: versions past TracedVersion stay rejected
// so a future format bump cannot be silently mis-decoded.
func TestFutureVersionRejected(t *testing.T) {
	e := NewEnvelope("k", "c", nil)
	data, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	data[2] = TracedVersion + 1
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
