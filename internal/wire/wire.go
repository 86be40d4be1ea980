// Package wire defines the on-the-wire envelope format shared by every
// protocol in the repository (rpc, mhs, rtc). An envelope carries a version,
// a kind discriminator, a correlation identifier, free-form headers, and an
// opaque body.
//
// The binary layout is deliberately simple and self-contained:
//
//	magic    uint16 = 0x0D9 ("ODP" truncated)
//	version  uint8
//	kind     lenString
//	corr     lenString
//	nheaders uint16, then nheaders × (lenString key, lenString value)
//	body     lenBytes
//
// where lenString/lenBytes is a uint32 length prefix followed by raw bytes.
// All integers are big-endian. The envelope treats the body as opaque, and
// every body has one form: the message type's own AppendBinary and
// UnmarshalBinary, a tag byte naming the message and then this package's
// codec helpers, read back through Body. Empty is the one body of a message
// with nothing to say. rpc's typed calls accept nothing else.
package wire

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"
	"time"
)

// Version is the base envelope format version. Envelopes that carry no
// trace context marshal as this version, byte-identical to every build
// before trace support existed.
const Version = 1

// TracedVersion is the envelope version that appends a fixed 24-byte
// trace block (trace id, span id, parent span id) after the body. An
// envelope marshals as TracedVersion exactly when its Trace field is
// set, so deployments with telemetry disabled emit version-1 bytes and
// old decoders never see a version they cannot parse unless a trace is
// actually present.
const TracedVersion = 2

// traceBlockLen is the encoded size of the trace block: three uint64s.
const traceBlockLen = 24

const magic uint16 = 0x0D9

// Maximum sizes guard against corrupt length prefixes.
const (
	maxStringLen = 1 << 16
	maxBodyLen   = 1 << 26 // 64 MiB
	maxHeaders   = 1 << 12
)

// MaxStringLen is the exclusive upper bound on encoded string length:
// strings must be strictly shorter than this to marshal. Writers that
// persist strings (e.g. the durable log) must enforce it up front —
// anything at or past the bound would encode but fail ConsumeString on
// the way back.
const MaxStringLen = maxStringLen

// TraceContext is the causal-tracing context an envelope can carry
// across a hop: which trace the frame belongs to, the span covering
// this hop, and that span's parent. A zero TraceContext means the frame
// is untraced.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Parent  uint64
}

// IsZero reports whether the context carries no trace.
func (tc TraceContext) IsZero() bool { return tc == TraceContext{} }

// Child returns a context for a new span under this one: same trace,
// the given span id, parented to this context's span.
func (tc TraceContext) Child(spanID uint64) TraceContext {
	return TraceContext{TraceID: tc.TraceID, SpanID: spanID, Parent: tc.SpanID}
}

// Header is one envelope header.
type Header struct{ Key, Value string }

// Envelope is the unit framed onto the simulated network. Its headers, set by
// SetHeader and read by Header, are kept in key order. The first four — all
// the stack ever sets: method, error, ch.epoch, ch.transparencies — live in
// the envelope itself and cost no allocation; no slice points into that
// array and the spill slice is replaced on every change, so an envelope
// copied by value shares no header storage with the original.
type Envelope struct {
	Version byte
	Kind    string
	Corr    string
	Body    []byte
	Trace   TraceContext

	nInline int
	inline  [4]Header
	spill   []Header // every header, once there are more than inline holds
}

// Errors returned by Unmarshal.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrTruncated  = errors.New("wire: truncated envelope")
	ErrOversize   = errors.New("wire: field exceeds size limit")
)

// NewEnvelope builds an envelope of the current version.
func NewEnvelope(kind, corr string, body []byte) *Envelope {
	return &Envelope{Version: Version, Kind: kind, Corr: corr, Body: body}
}

// SetHeader sets a header, replacing the value an equal key had.
func (e *Envelope) SetHeader(k, v string) {
	if e.spill != nil {
		e.spill = append(make([]Header, 0, len(e.spill)+1), e.spill...)
	}
	e.put(k, v)
}

// Header returns the header value and whether it was present.
func (e *Envelope) Header(k string) (string, bool) {
	for _, h := range e.headers() {
		if h.Key == k {
			return h.Value, true
		}
	}
	return "", false
}

// headers returns the headers in key order, aliasing the envelope's storage.
func (e *Envelope) headers() []Header {
	if e.spill != nil {
		return e.spill
	}
	return e.inline[:e.nInline]
}

// put files the header at its place in key order, in the storage the
// envelope already has when it fits.
func (e *Envelope) put(k, v string) {
	h := e.headers()
	i, ok := slices.BinarySearchFunc(h, k, func(h Header, k string) int { return strings.Compare(h.Key, k) })
	switch {
	case ok:
		h[i].Value = v
	case e.spill == nil && e.nInline < len(e.inline):
		e.nInline++
		copy(e.inline[i+1:e.nInline], e.inline[i:])
		e.inline[i] = Header{k, v}
	default:
		// A full inline array has no spare capacity, so this moves the
		// headers out of it; a spill slice grows in place when it can.
		e.spill = slices.Insert(h, i, Header{k, v})
	}
}

// Marshal encodes the envelope to bytes. Headers are written in key order so
// encoding is deterministic. The output is produced with a single exact-size
// allocation.
func Marshal(e *Envelope) ([]byte, error) {
	return AppendMarshal(nil, e)
}

// AppendMarshal appends the encoded envelope to dst and returns the
// extended slice, growing dst at most once.
func AppendMarshal(dst []byte, e *Envelope) ([]byte, error) {
	if len(e.Kind) >= maxStringLen || len(e.Corr) >= maxStringLen {
		return nil, fmt.Errorf("%w: kind or corr too long", ErrOversize)
	}
	if len(e.Body) >= maxBodyLen {
		return nil, fmt.Errorf("%w: body %d bytes", ErrOversize, len(e.Body))
	}
	headers := e.headers()
	if len(headers) >= maxHeaders {
		return nil, fmt.Errorf("%w: %d headers", ErrOversize, len(headers))
	}
	version := e.Version
	if version == 0 {
		version = Version
	}
	if !e.Trace.IsZero() && version < TracedVersion {
		version = TracedVersion
	}
	traced := version >= TracedVersion

	size := 2 + 1 + 4 + len(e.Kind) + 4 + len(e.Corr) + 2 + 4 + len(e.Body)
	if traced {
		size += traceBlockLen
	}
	for _, h := range headers {
		if len(h.Key) >= maxStringLen || len(h.Value) >= maxStringLen {
			return nil, fmt.Errorf("%w: header %q", ErrOversize, h.Key)
		}
		size += 8 + len(h.Key) + len(h.Value)
	}

	if cap(dst)-len(dst) < size {
		grown := make([]byte, len(dst), len(dst)+size)
		copy(grown, dst)
		dst = grown
	}
	buf := dst
	buf = binary.BigEndian.AppendUint16(buf, magic)
	buf = append(buf, version)
	buf = appendStr(buf, e.Kind)
	buf = appendStr(buf, e.Corr)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(headers)))
	for _, h := range headers {
		buf = appendStr(buf, h.Key)
		buf = appendStr(buf, h.Value)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Body)))
	buf = append(buf, e.Body...)
	if traced {
		buf = binary.BigEndian.AppendUint64(buf, e.Trace.TraceID)
		buf = binary.BigEndian.AppendUint64(buf, e.Trace.SpanID)
		buf = binary.BigEndian.AppendUint64(buf, e.Trace.Parent)
	}
	return buf, nil
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// Unmarshal decodes an envelope from bytes into a new Envelope, by
// UnmarshalBinary's rule.
func Unmarshal(data []byte) (*Envelope, error) {
	e := new(Envelope)
	if err := e.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return e, nil
}

// UnmarshalBinary decodes an envelope from bytes into e, replacing all it
// held. e's Body aliases data — the caller owns the input buffer and must
// not mutate it while the envelope is live. (Every producer in this
// repository hands the buffer over exactly once, so decode stays copy-free.)
//
// Every length is checked before anything is built; the region from Kind to
// the last header value is then copied once, as one string, and Kind, Corr,
// keys and values are handed out as substrings of it. With at most four
// headers that string is the only allocation. On error e is left unchanged.
func (e *Envelope) UnmarshalBinary(data []byte) error {
	r := reader{data: data}
	m, err := r.u16()
	if err != nil {
		return err
	}
	if m != magic {
		return ErrBadMagic
	}
	ver, err := r.byte()
	if err != nil {
		return err
	}
	if ver == 0 || ver > TracedVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	start := r.pos
	for range 2 { // kind, corr
		if _, err := r.bytes(maxStringLen); err != nil {
			return err
		}
	}
	n, err := r.u16()
	if err != nil {
		return err
	}
	if n >= maxHeaders {
		return fmt.Errorf("%w: %d headers", ErrOversize, n)
	}
	for range 2 * int(n) { // key, value
		if _, err := r.bytes(maxStringLen); err != nil {
			return err
		}
	}
	end := r.pos
	body, err := r.bytes(maxBodyLen)
	if err != nil {
		return err
	}
	if len(body) == 0 {
		body = nil
	}
	var tc TraceContext
	if ver >= TracedVersion {
		if tc.TraceID, err = r.u64(); err != nil {
			return err
		}
		if tc.SpanID, err = r.u64(); err != nil {
			return err
		}
		if tc.Parent, err = r.u64(); err != nil {
			return err
		}
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.data)-r.pos)
	}

	text := string(data[start:end])
	*e = Envelope{Version: ver, Body: body, Trace: tc}
	e.Kind, e.Corr = cutStr(&text), cutStr(&text)
	text = text[2:] // the header count
	if int(n) > len(e.inline) {
		e.spill = make([]Header, 0, n)
	}
	for range n {
		e.put(cutStr(&text), cutStr(&text)) // a repeated key: the last value wins
	}
	return nil
}

// cutStr takes a length-prefixed string off the front of *s, whose lengths
// Unmarshal has already checked.
func cutStr(s *string) string {
	t := *s
	n := 4 + (int(t[0])<<24 | int(t[1])<<16 | int(t[2])<<8 | int(t[3]))
	*s = t[n:]
	return t[4:n]
}

type reader struct {
	data []byte
	pos  int
}

func (r *reader) byte() (byte, error) {
	if r.pos+1 > len(r.data) {
		return 0, ErrTruncated
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) u16() (uint16, error) {
	if r.pos+2 > len(r.data) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint16(r.data[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.pos+8 > len(r.data) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.pos+4 > len(r.data) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v, nil
}

// bytes returns a sub-slice aliasing the input buffer, as the body stays per
// Unmarshal's contract.
func (r *reader) bytes(limit int) ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	// uint64 comparison so a corrupt length cannot overflow int on 32-bit.
	if uint64(n) >= uint64(limit) {
		return nil, fmt.Errorf("%w: %d bytes", ErrOversize, n)
	}
	if r.pos+int(n) > len(r.data) {
		return nil, ErrTruncated
	}
	out := r.data[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

// --- CRC-framed records ---------------------------------------------------
//
// Records are the framing unit of durable logs (the log-structured
// information store's WAL and snapshot files): a fixed header carrying the
// payload length and a CRC-32 checksum, then the payload bytes. Unlike
// envelopes, records never cross the network — the checksum exists so a
// torn write or bit rot at the tail of a log is detected and recovery can
// stop at the last intact record instead of replaying garbage.

// recordMagic distinguishes record framing from envelope framing, so a log
// file misread as an envelope stream (or vice versa) fails immediately.
const recordMagic uint16 = 0x0DA

// RecordOverhead is the number of framing bytes AppendRecord adds to a
// payload: magic, length, checksum.
const RecordOverhead = 2 + 4 + 4

// ErrBadCRC reports a record whose payload does not match its checksum.
var ErrBadCRC = errors.New("wire: record checksum mismatch")

// AppendRecord appends one CRC-framed record carrying payload to dst and
// returns the extended slice.
func AppendRecord(dst, payload []byte) ([]byte, error) {
	if len(payload) >= maxBodyLen {
		return nil, fmt.Errorf("%w: record payload %d bytes", ErrOversize, len(payload))
	}
	dst = binary.BigEndian.AppendUint16(dst, recordMagic)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...), nil
}

// NextRecord decodes the first record in data, returning its payload
// (aliasing data) and the remaining bytes. A short buffer returns
// ErrTruncated, a corrupted header ErrBadMagic or ErrOversize, and a
// payload failing its checksum ErrBadCRC — log recovery treats any of
// these as the end of the intact prefix.
func NextRecord(data []byte) (payload, rest []byte, err error) {
	if len(data) < RecordOverhead {
		return nil, data, ErrTruncated
	}
	if binary.BigEndian.Uint16(data) != recordMagic {
		return nil, data, ErrBadMagic
	}
	// Bounds-check in uint64: a corrupt length with the high bit set must
	// not overflow int on 32-bit platforms and dodge the checks.
	n := binary.BigEndian.Uint32(data[2:])
	if uint64(n) >= maxBodyLen {
		return nil, data, fmt.Errorf("%w: %d-byte record", ErrOversize, n)
	}
	if uint64(len(data)) < RecordOverhead+uint64(n) {
		return nil, data, ErrTruncated
	}
	sum := binary.BigEndian.Uint32(data[6:])
	payload = data[RecordOverhead : RecordOverhead+int(n) : RecordOverhead+int(n)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, data, ErrBadCRC
	}
	return payload, data[RecordOverhead+int(n):], nil
}

// ReadRecord reads the next record from r into scratch (grown as needed)
// and returns the payload plus the possibly-reallocated scratch buffer —
// the streaming counterpart of NextRecord for callers iterating a log too
// large to hold in memory. A clean end of stream returns io.EOF; a stream
// ending inside a record returns ErrTruncated; framing and checksum
// failures return the same errors as NextRecord. The payload aliases
// scratch and is only valid until the next call; the header is read into
// scratch too, so a warm scratch reads a record without allocating.
func ReadRecord(r io.Reader, scratch []byte) (payload, newScratch []byte, err error) {
	if cap(scratch) < RecordOverhead {
		scratch = make([]byte, RecordOverhead)
	}
	hdr := scratch[:RecordOverhead]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, scratch, io.EOF
		}
		return nil, scratch, ErrTruncated
	}
	if binary.BigEndian.Uint16(hdr) != recordMagic {
		return nil, scratch, ErrBadMagic
	}
	n := binary.BigEndian.Uint32(hdr[2:])
	if uint64(n) >= maxBodyLen {
		return nil, scratch, fmt.Errorf("%w: %d-byte record", ErrOversize, n)
	}
	sum := binary.BigEndian.Uint32(hdr[6:])
	if cap(scratch) < int(n) {
		scratch = make([]byte, n)
	}
	scratch = scratch[:n]
	if _, err := io.ReadFull(r, scratch); err != nil {
		return nil, scratch, ErrTruncated
	}
	if crc32.ChecksumIEEE(scratch) != sum {
		return nil, scratch, ErrBadCRC
	}
	return scratch, scratch, nil
}

// --- codec helpers --------------------------------------------------------
//
// Length-prefixed primitives shared by record payload codecs. They use the
// same layout as envelope fields (big-endian, uint32 length prefixes) so
// every byte format in the repository reads the same way.

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte { return appendStr(dst, s) }

// ConsumeString decodes a length-prefixed string from data, returning it
// and the remaining bytes.
func ConsumeString(data []byte) (string, []byte, error) {
	if len(data) < 4 {
		return "", data, ErrTruncated
	}
	// uint64 comparisons, for the same 32-bit overflow reason as NextRecord.
	n := binary.BigEndian.Uint32(data)
	if uint64(n) >= maxStringLen {
		return "", data, fmt.Errorf("%w: %d-byte string", ErrOversize, n)
	}
	if uint64(len(data)) < 4+uint64(n) {
		return "", data, ErrTruncated
	}
	return string(data[4 : 4+int(n)]), data[4+int(n):], nil
}

// AppendUint64 appends a big-endian uint64.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// ConsumeUint64 decodes a big-endian uint64 from data, returning it and
// the remaining bytes.
func ConsumeUint64(data []byte) (uint64, []byte, error) {
	if len(data) < 8 {
		return 0, data, ErrTruncated
	}
	return binary.BigEndian.Uint64(data), data[8:], nil
}

// AppendTime appends an instant as Unix seconds (uint64, two's complement)
// and nanoseconds (uint32). Unlike UnixNano this holds every time.Time, the
// zero one included: a field tested with IsZero reads as it was written.
// Body.Time reads it back.
func AppendTime(dst []byte, t time.Time) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.Unix()))
	return binary.BigEndian.AppendUint32(dst, uint32(t.Nanosecond()))
}

// EncodeBody encodes v for use as an envelope body: AppendBody into a
// buffer of its own.
func EncodeBody(v any) ([]byte, error) { return AppendBody(nil, v) }

// AppendBody appends v's body to dst: by v's own AppendBinary when it has
// one, as JSON otherwise. No deployed path calls it — rpc and every service
// call AppendBinary and UnmarshalBinary directly — and its JSON branch, with
// DecodeBody's and EncodeBody, is kept for one caller, the benchmark's
// ledger, until the ledger prices real bodies.
func AppendBody(dst []byte, v any) ([]byte, error) {
	var err error
	if m, ok := v.(encoding.BinaryAppender); ok {
		dst, err = m.AppendBinary(dst)
	} else {
		buf := bytes.NewBuffer(dst)
		err = json.NewEncoder(buf).Encode(v)
		dst = bytes.TrimSuffix(buf.Bytes(), []byte("\n")) // Encode is Marshal plus a newline
	}
	if err != nil {
		return nil, fmt.Errorf("wire: encode body: %w", err)
	}
	return dst, nil
}

// DecodeBody decodes a body produced by EncodeBody into v: by v's own
// UnmarshalBinary when it has one, as JSON otherwise. A binary body opens
// with a tag byte that cannot start a JSON text, so either decoder rejects
// the other's bytes. Like AppendBody it is kept for the benchmark's ledger.
func DecodeBody(data []byte, v any) (err error) {
	if u, ok := v.(encoding.BinaryUnmarshaler); ok {
		err = u.UnmarshalBinary(data)
	} else {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		return fmt.Errorf("wire: decode body: %w", err)
	}
	return nil
}
