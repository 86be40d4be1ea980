package logstore

import (
	"fmt"
	"time"

	"mocca/internal/information"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// Format 1 is the row layout of stores written before rows became compact:
// every string a uint32 length and its bytes, then the Version as a
// uint64, the vector as a uint64 count and, per site in sorted order, a
// uint32-prefixed name and a uint64 counter, both timestamps as the uint64
// of their UnixNano, and the field count as a uint64 before the
// uint32-prefixed keys and values. A tombstone in a format-1 segment is its
// id, uint32-prefixed.
//
// Nothing writes format 1, and only Open reads it, in two places: WAL
// replay decodes a recExecV1 record into the memtable, and the fold
// (legacy.go) rewrites every segment of a store that holds one headed by
// recSegMetaV1 in the current format before anything else reads it. So no
// probe, scan, merge or compaction ever sees a format-1 byte. Format 2
// (format2.go) is read the same way.

// decodeObjectV1 decodes one format-1 row, returning it and the remaining
// bytes. Like information.DecodeObject it checks each count against the
// bytes that remain before it allocates. The Version stored beside the
// vector is read past and the row's Version set to the vector's sum, as a
// row in the current format reads, so a row reads the same before and
// after Open rewrites it.
func decodeObjectV1(data []byte) (*information.Object, []byte, error) {
	b := oldReader{rest: data}
	o := &information.Object{ID: b.string(), Schema: b.string(), Owner: b.string(), Site: b.string()}
	b.uint64()                      // the Version
	if n := b.count(4 + 8); n > 0 { // a name's length and a counter
		o.VV = make(vclock.Version, n)
		for range n {
			site := b.string()
			o.VV[site] = b.uint64()
		}
	}
	o.Version = o.VV.Sum()
	o.Created = time.Unix(0, int64(b.uint64())).UTC()
	o.Updated = time.Unix(0, int64(b.uint64())).UTC()
	if n := b.count(4 + 4); n > 0 { // a key's and a value's length
		o.Fields = make(map[string]string, n)
		for range n {
			k := b.string()
			o.Fields[k] = b.string()
		}
	}
	if b.err != nil {
		return nil, data, b.err
	}
	return o, b.rest, nil
}

// oldReader reads the primitives of formats 1 and 2; the first failure
// sticks, and every later read returns a zero value.
type oldReader struct {
	rest []byte
	err  error
}

func (b *oldReader) string() (s string) {
	if b.err == nil {
		s, b.rest, b.err = wire.ConsumeString(b.rest)
	}
	return s
}

func (b *oldReader) uint64() (v uint64) {
	if b.err == nil {
		v, b.rest, b.err = wire.ConsumeUint64(b.rest)
	}
	return v
}

// count reads a uint64 count of elements of at least minSize bytes each,
// refusing one the remaining bytes cannot hold.
func (b *oldReader) count(minSize uint64) uint64 {
	n := b.uint64()
	if b.err == nil && n > uint64(len(b.rest))/minSize {
		b.err = fmt.Errorf("%w: %d elements in %d bytes", wire.ErrTruncated, n, len(b.rest))
		return 0
	}
	return n
}
