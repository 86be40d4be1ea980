package wire

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// ErrBadBody reports a binary body that is not the message its decoder
// expects: another tag, a flag, count, integer or instant out of range, or
// bytes left over.
var ErrBadBody = errors.New("wire: bad message body")

// Empty is the one body of a message with nothing to say: the reply of a
// call whose only outcome is "done", and the request of one that takes no
// argument. It appends nothing and refuses any byte.
type Empty struct{}

// AppendBinary implements encoding.BinaryAppender.
func (Empty) AppendBinary(b []byte) ([]byte, error) { return b, nil }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (*Empty) UnmarshalBinary(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("%w: %d bytes where none belong", ErrBadBody, len(data))
	}
	return nil
}

// AppendList appends a list: a uvarint count, then each element as put
// writes it. A decoder reads it back with Count and one read per element.
func AppendList[T any](dst []byte, list []T, put func([]byte, T) []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(list)))
	for _, v := range list {
		dst = put(dst, v)
	}
	return dst
}

// AppendStrings appends a string list. Body.Strings reads it back.
func AppendStrings(dst []byte, list []string) []byte { return AppendList(dst, list, AppendString) }

// AppendStringMap appends a string map: a uvarint count, then each key and
// its value in sorted key order, so equal maps are equal bytes.
// Body.StringMap reads it back.
func AppendStringMap(dst []byte, m map[string]string) []byte {
	dst = AppendUvarint(dst, uint64(len(m)))
	// Room on the stack for the maps the system sends; a wider one spills to
	// the heap.
	var room [16]string
	keys := room[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = AppendString(dst, k)
		dst = AppendString(dst, m[k])
	}
	return dst
}

// Body is a cursor over a hand-written binary message body: a tag byte
// naming the message, then the codec helpers' primitives. The first failure
// sticks — every later read returns a zero value and Close reports it — so a
// decoder is one line per field and checks one error. Count holds an element
// count against the bytes that remain, so a decoder that sizes a slice or a
// map by it allocates no more than the body could fill. A Body copied by
// value reads on from the same place without moving the original.
type Body struct {
	rest []byte
	err  error
}

// OpenBody starts reading data as the message that opens with tag; name
// names that message in the error when it is something else.
func OpenBody(data []byte, tag byte, name string) Body {
	if len(data) == 0 || data[0] != tag {
		return Body{err: fmt.Errorf("%w: not a %s", ErrBadBody, name)}
	}
	return Body{rest: data[1:]}
}

// Consume runs a (value, rest, error) decoder — ConsumeString, a version
// vector's or a row's — at the cursor.
func Consume[T any](b *Body, decode func([]byte) (T, []byte, error)) (v T) {
	if b.err != nil {
		return v
	}
	v, b.rest, b.err = decode(b.rest)
	return v
}

// String reads a string written by AppendString.
func (b *Body) String() string { return Consume(b, ConsumeString) }

// Uint64 reads an unsigned varint written by AppendUvarint.
func (b *Body) Uint64() uint64 { return Consume(b, ConsumeUvarint) }

// Raw takes the next n bytes as they are, aliasing the body.
func (b *Body) Raw(n int) []byte {
	if b.err == nil && n > len(b.rest) {
		b.err = ErrTruncated
	}
	if b.err != nil {
		return nil
	}
	out := b.rest[:n:n]
	b.rest = b.rest[n:]
	return out
}

// Flags reads a flags byte; a bit outside allowed is an error.
func (b *Body) Flags(allowed byte) byte {
	raw := b.Raw(1)
	if b.err != nil {
		return 0
	}
	if raw[0]&^allowed != 0 {
		b.err = fmt.Errorf("%w: flags %#x", ErrBadBody, raw[0])
		return 0
	}
	return raw[0]
}

// Int reads an int carried as the uvarint of its two's complement.
func (b *Body) Int() int {
	v := b.Uint64()
	if int64(int(v)) != int64(v) {
		b.err = fmt.Errorf("%w: integer %d out of range", ErrBadBody, int64(v))
		return 0
	}
	return int(v)
}

// Count reads an element count, a uvarint, and checks it against the bytes
// that remain — each element takes at least minSize — so a corrupt count is
// an error before it is an allocation.
func (b *Body) Count(minSize int) int {
	n := b.Uint64()
	if n > uint64(len(b.rest)/minSize) {
		b.err = fmt.Errorf("%w: count %d in %d bytes", ErrBadBody, n, len(b.rest))
		return 0
	}
	return int(n)
}

// Strings reads a list written by AppendStrings; an empty one reads as nil.
func (b *Body) Strings() []string {
	n := b.Count(1) // a length
	if n == 0 {
		return nil
	}
	list := make([]string, n)
	for i := range list {
		list[i] = b.String()
	}
	return list
}

// StringMap reads a map written by AppendStringMap; an empty one reads as
// nil.
func (b *Body) StringMap() map[string]string {
	n := b.Count(2) // a key's length and a value's
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for range n {
		k := b.String()
		m[k] = b.String()
	}
	return m
}

// Time reads an instant written by AppendTime, in UTC.
func (b *Body) Time() time.Time {
	sec := Consume(b, ConsumeVarint)
	nsec := b.Uint64()
	if b.err == nil && nsec >= 1e9 {
		b.err = fmt.Errorf("%w: %d nanoseconds", ErrBadBody, nsec)
	}
	if b.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// Close ends the read: the first failure, or ErrBadBody when bytes are left
// after the last field.
func (b *Body) Close() error {
	if b.err == nil && len(b.rest) != 0 {
		b.err = fmt.Errorf("%w: %d trailing bytes", ErrBadBody, len(b.rest))
	}
	return b.err
}
