// Package wire defines the on-the-wire envelope format shared by every
// protocol in the repository (rpc, mhs, rtc). An envelope carries a version,
// a kind discriminator, a correlation identifier, free-form headers, an
// opaque body and, when the frame is traced, a trace context.
//
// The binary layout (format version 3) says each field in as few bytes as
// it can:
//
//	magic    uint16 = 0x0D9 ("ODP" truncated), big-endian
//	version  uint8  = 3, with traceFlag (0x80) set when a trace block follows
//	kind     str
//	corr     str
//	nheaders uvarint, then nheaders × (str key, str value)
//	body     uvarint length, then the bytes
//	trace    trace id, span id, parent span id: three big-endian uint64s,
//	         present only when the version byte carries traceFlag
//
// where a str is one uvarint v: an odd v names entry v>>1 of the static
// string table (staticStrings: the rpc kinds, the stack's header keys and
// every rpc method name), and an even v is followed by v>>1 literal bytes.
// An rpc call's envelope is therefore its kind, its header count and its
// method header's key and value in a byte each, its correlation id as a
// short literal and its body length.
// The envelope treats the body as opaque, and every body has one form: the
// message type's own AppendBinary and UnmarshalBinary, a tag byte naming the
// message and then this package's codec helpers, read back through Body.
// Empty is the one body of a message with nothing to say. rpc's typed calls
// accept nothing else.
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
	"math/bits"
	"slices"
	"strings"
	"time"
)

// Version is the envelope format version. Only netsim carries frames, so no
// peer speaks an older one: a frame of version 1 or 2 is refused.
const Version = 3

// traceFlag marks, in the version byte, a frame whose trace block follows
// its body. An untraced frame carries no trace bytes at all.
const traceFlag = 0x80

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

// staticStrings is the one static string table: an envelope string equal to
// an entry travels as the entry's index. It holds the three rpc kinds, the
// three header keys the stack sets and every rpc method name in the module,
// beside retired entries no code says any more: the transparency header
// and the methods of removed operations (TestWireStringTable holds the
// methods and the retired names to it). It is append-only within a wire
// version: an entry's index is what the frame says, so reordering or
// removing one needs a new Version.
var staticStrings = [...]string{
	"rpc.req", "rpc.rep", "rpc.ann",
	"method", "error", "ch.epoch", "ch.transparencies",
	"replica.sync", "replica.push", "replica.digest",
	"gossip.join", "gossip.forward-join", "gossip.neighbor", "gossip.disconnect",
	"gossip.shuffle", "gossip.probe", "gossip.rumor", "gossip.ihave",
	"gossip.prune", "gossip.graft",
	"x500.read", "x500.search", "x500.add", "x500.delete", "x500.modify", "x500.list",
	"trader.export", "trader.withdraw", "trader.import", "trader.regtype",
	"mhs.transfer",
	"rtc.join", "rtc.leave", "rtc.update", "rtc.sync", "rtc.floor.request",
	"rtc.floor.release", "rtc.heartbeat", "rtc.event",
}

// StaticStrings is the number of entries in the static string table.
const StaticStrings = len(staticStrings)

// StaticIndex returns the index of s in the static string table, which a
// frame says in place of s.
func StaticIndex(s string) (int, bool) {
	code, ok := staticCode[s]
	return int(code >> 1), ok
}

// StaticString returns entry i of the static string table.
func StaticString(i int) string { return staticStrings[i] }

// staticCode maps each staticStrings entry to its str value, 2·index+1.
var staticCode = func() map[string]uint64 {
	m := make(map[string]uint64, len(staticStrings))
	for i, s := range staticStrings {
		m[s] = 2*uint64(i) + 1
	}
	return m
}()

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
// SetHeader and read by Header, are kept in key order. The first four — room
// for the three the stack sets: method, error, ch.epoch — live in the
// envelope itself and cost no allocation; no slice points into that
// array and the spill slice is replaced on every change, so an envelope
// copied by value shares no header storage with the original.
type Envelope struct {
	// Version is the format version Marshal writes (zero: Version); a
	// decoded envelope always reads Version.
	Version byte
	Kind    string
	Corr    string
	Body    []byte
	Trace   TraceContext

	nInline int
	inline  [inlineHeaders]Header
	spill   []Header // every header, once there are more than inline holds
}

// inlineHeaders is how many headers an envelope holds without a spill
// slice: the three the stack sets and one more.
const inlineHeaders = 4

// Errors returned by Unmarshal.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrTruncated  = errors.New("wire: truncated envelope")
	ErrOversize   = errors.New("wire: field exceeds size limit")
	ErrBadIndex   = errors.New("wire: static string index past the table")
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

// SizeBound returns at least the encoded size of e, without consulting the
// static string table: the body's length plus a bound on the envelope's
// header — every string taken as a literal behind the longest code its
// length allows. AppendMarshal into a buffer with that much room does not
// grow it.
func (e *Envelope) SizeBound() int {
	const strCode = 3 // a code below 2·maxStringLen = 2¹⁷
	n := 3 + 2*strCode + len(e.Kind) + len(e.Corr) +
		2 + // the header count, below maxHeaders = 2¹²
		4 + len(e.Body) + // the body length, below maxBodyLen = 2²⁶
		traceBlockLen
	for _, h := range e.headers() {
		n += 2*strCode + len(h.Key) + len(h.Value)
	}
	return n
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
	traced := !e.Trace.IsZero()
	if traced {
		version |= traceFlag
	}

	size := 3 + strLen(e.Kind) + strLen(e.Corr) + UvarintLen(uint64(len(headers))) +
		UvarintLen(uint64(len(e.Body))) + len(e.Body)
	if traced {
		size += traceBlockLen
	}
	for _, h := range headers {
		if len(h.Key) >= maxStringLen || len(h.Value) >= maxStringLen {
			return nil, fmt.Errorf("%w: header %q", ErrOversize, h.Key)
		}
		size += strLen(h.Key) + strLen(h.Value)
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
	buf = binary.AppendUvarint(buf, uint64(len(headers)))
	for _, h := range headers {
		buf = appendStr(buf, h.Key)
		buf = appendStr(buf, h.Value)
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.Body)))
	buf = append(buf, e.Body...)
	if traced {
		buf = binary.BigEndian.AppendUint64(buf, e.Trace.TraceID)
		buf = binary.BigEndian.AppendUint64(buf, e.Trace.SpanID)
		buf = binary.BigEndian.AppendUint64(buf, e.Trace.Parent)
	}
	return buf, nil
}

// strCode is s's envelope str value: 2·index+1 for a static string, 2·len
// for a literal.
func strCode(s string) uint64 {
	if code, ok := staticCode[s]; ok {
		return code
	}
	return 2 * uint64(len(s))
}

// appendStr appends s as an envelope str: its value, then the bytes of a
// literal.
func appendStr(buf []byte, s string) []byte {
	code := strCode(s)
	buf = binary.AppendUvarint(buf, code)
	if code&1 == 0 {
		buf = append(buf, s...)
	}
	return buf
}

// strLen is the encoded size of s as an envelope str.
func strLen(s string) int {
	code := strCode(s)
	n := UvarintLen(code)
	if code&1 == 0 {
		n += len(s)
	}
	return n
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
// not mutate it while the envelope is live — so decode stays copy-free; the
// strings are e's own. The channel stack lends such an envelope to its
// receiver for the upcall only and then reuses data for another frame, so
// a Body is read, or copied out, before the upcall returns.
//
// Every field is checked before anything is built: a length, count or index
// a hostile frame gets wrong is refused before it sizes an allocation. The
// span of literal string bytes is then copied once, as one string, and the
// literal fields are handed out as substrings of it; a static string is the
// table's own. With at most four headers that string is the only
// allocation, and a frame with no literal string allocates nothing. On
// error e is left unchanged.
func (e *Envelope) UnmarshalBinary(data []byte) error {
	r := reader{data: data, lo: len(data)}
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
	if ver&^traceFlag != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, ver&^traceFlag)
	}
	start := r.pos
	for range 2 { // kind, corr
		if err := r.str(); err != nil {
			return err
		}
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n >= maxHeaders {
		return fmt.Errorf("%w: %d headers", ErrOversize, n)
	}
	if n > uint64(len(data)-r.pos)/2 { // a header takes two bytes at least
		return fmt.Errorf("%w: %d headers in %d bytes", ErrTruncated, n, len(data)-r.pos)
	}
	for range 2 * n { // key, value
		if err := r.str(); err != nil {
			return err
		}
	}
	body, err := r.bytes(maxBodyLen)
	if err != nil {
		return err
	}
	if len(body) == 0 {
		body = nil
	}
	var tc TraceContext
	if ver&traceFlag != 0 {
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

	var text string
	if r.lo < r.hi {
		text = string(data[r.lo:r.hi])
	}
	*e = Envelope{Version: Version, Body: body, Trace: tc}
	c := cutter{data: data, pos: start, text: text, lo: r.lo}
	e.Kind, e.Corr = c.str(), c.str()
	c.uvarint() // the header count, n
	if n > inlineHeaders {
		e.spill = make([]Header, 0, n)
	}
	for range n {
		e.put(c.str(), c.str()) // a repeated key: the last value wins
	}
	return nil
}

// reader checks an envelope field by field. It notes the span [lo, hi) of
// the literal string bytes it passes, which UnmarshalBinary copies once.
type reader struct {
	data   []byte
	pos    int
	lo, hi int
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

func (r *reader) uvarint() (uint64, error) {
	v, rest, err := ConsumeUvarint(r.data[r.pos:])
	r.pos = len(r.data) - len(rest)
	return v, err
}

// str checks one envelope str: a static index inside the table, or a
// literal that fits the frame and the size limit.
func (r *reader) str() error {
	v, err := r.uvarint()
	if err != nil {
		return err
	}
	if v&1 == 1 {
		if v>>1 >= uint64(len(staticStrings)) {
			return fmt.Errorf("%w: %d", ErrBadIndex, v>>1)
		}
		return nil
	}
	lit, err := r.take(v>>1, maxStringLen)
	if len(lit) > 0 {
		r.lo, r.hi = min(r.lo, r.pos-len(lit)), r.pos
	}
	return err
}

// bytes reads a uvarint length and that many bytes, aliasing the input
// buffer, as the body stays per Unmarshal's contract.
func (r *reader) bytes(limit uint64) ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	return r.take(n, limit)
}

// take returns the next n bytes, n below limit.
func (r *reader) take(n, limit uint64) ([]byte, error) {
	if n >= limit {
		return nil, fmt.Errorf("%w: %d bytes", ErrOversize, n)
	}
	if n > uint64(len(r.data)-r.pos) {
		return nil, ErrTruncated
	}
	out := r.data[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

// cutter reads back the strings of a frame reader has checked, handing out
// a literal as a substring of text, the copy of the literal span that
// starts at data[lo].
type cutter struct {
	data []byte
	pos  int
	text string
	lo   int
}

func (c *cutter) uvarint() uint64 {
	v, n := binary.Uvarint(c.data[c.pos:])
	c.pos += n
	return v
}

func (c *cutter) str() string {
	v := c.uvarint()
	if v&1 == 1 {
		return staticStrings[v>>1]
	}
	n := int(v >> 1)
	if n == 0 {
		return ""
	}
	off := c.pos - c.lo
	c.pos += n
	return c.text[off : off+n]
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
// The primitives message bodies are built from, one form each: a string is
// a uvarint length and its bytes, a count, sequence number or int a
// uvarint, a signed value a zigzag varint, an instant a zigzag varint of
// Unix seconds and a uvarint of nanoseconds. Unlike an envelope's strings
// they know no static table, so the bytes a body or a row holds do not
// depend on the wire version. The durable log's fixed-width records keep
// their own helpers in their package.

// AppendString appends a string prefixed with its length as a uvarint: one
// byte of length for a string shorter than 128 bytes.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// ConsumeString decodes a string written by AppendString, returning it and
// the remaining bytes. A length at or past MaxStringLen is ErrOversize, one
// past the bytes left ErrTruncated.
func ConsumeString(data []byte) (string, []byte, error) {
	s, rest, err := SkipString(data)
	return string(s), rest, err
}

// SkipString is ConsumeString without the copy: the string's bytes as a
// sub-slice of data, under the same checks. A length below 128, the common
// case, is read inline.
func SkipString(data []byte) (s, rest []byte, err error) {
	if len(data) > 0 && data[0] < 0x80 && int(data[0]) < len(data) {
		n := 1 + int(data[0])
		return data[1:n], data[n:], nil
	}
	return skipLongString(data)
}

func skipLongString(data []byte) (s, rest []byte, err error) {
	n, rest, err := ConsumeUvarint(data)
	switch {
	case err != nil:
		return nil, data, err
	case n >= maxStringLen:
		return nil, data, fmt.Errorf("%w: %d-byte string", ErrOversize, n)
	case n > uint64(len(rest)):
		return nil, data, ErrTruncated
	}
	return rest[:n], rest[n:], nil
}

// AppendUvarint appends v as an unsigned varint: seven bits a byte, low
// group first, so a value below 128 takes one byte.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// UvarintLen is the number of bytes AppendUvarint writes for v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// ConsumeUvarint decodes an unsigned varint from data, returning it and the
// remaining bytes. One that runs off the end of data is ErrTruncated; one
// longer than ten bytes, or past 64 bits, is ErrOversize.
func ConsumeUvarint(data []byte) (uint64, []byte, error) {
	if len(data) > 0 && data[0] < 0x80 {
		return uint64(data[0]), data[1:], nil
	}
	return consumeLongUvarint(data)
}

func consumeLongUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	switch {
	case n == 0:
		return 0, data, ErrTruncated
	case n < 0:
		return 0, data, fmt.Errorf("%w: uvarint past 64 bits", ErrOversize)
	}
	return v, data[n:], nil
}

// AppendVarint appends v as a zigzag varint: the uvarint of 2v, or of
// −2v−1 for a negative v, so a small magnitude of either sign takes one
// byte.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// ConsumeVarint decodes a zigzag varint written by AppendVarint, returning
// it and the remaining bytes, under ConsumeUvarint's checks.
func ConsumeVarint(data []byte) (int64, []byte, error) {
	v, n := binary.Varint(data)
	switch {
	case n == 0:
		return 0, data, ErrTruncated
	case n < 0:
		return 0, data, fmt.Errorf("%w: varint past 64 bits", ErrOversize)
	}
	return v, data[n:], nil
}

// AppendTime appends an instant as its Unix seconds, a zigzag varint, and
// its nanoseconds, a uvarint. Unlike UnixNano this holds every time.Time,
// the zero one included: a field tested with IsZero reads as it was
// written. Body.Time reads it back.
func AppendTime(dst []byte, t time.Time) []byte {
	dst = binary.AppendVarint(dst, t.Unix())
	return binary.AppendUvarint(dst, uint64(t.Nanosecond()))
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
