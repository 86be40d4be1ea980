package information

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// AppendObject appends the canonical binary encoding of one object row:
// length-prefixed strings, big-endian integers, the version vector in
// vclock's canonical sorted form, and fields in sorted key order. Equal
// rows encode to equal bytes, which is what lets recovery be verified
// byte-for-byte. It is the one row codec of the repository: the durable
// log (logstore's WAL and segments) and the replication planes
// (replica.* and gossip.fetch bodies) carry rows in exactly this form.
func AppendObject(dst []byte, o *Object) []byte {
	dst = wire.AppendString(dst, o.ID)
	dst = wire.AppendString(dst, o.Schema)
	dst = wire.AppendString(dst, o.Owner)
	dst = wire.AppendString(dst, o.Site)
	dst = wire.AppendUint64(dst, o.Version)
	dst = o.VV.AppendBinary(dst)
	dst = wire.AppendUint64(dst, uint64(o.Created.UnixNano()))
	dst = wire.AppendUint64(dst, uint64(o.Updated.UnixNano()))
	dst = wire.AppendUint64(dst, uint64(len(o.Fields)))
	// Room on the stack for the rows the system writes; a wider row spills
	// to the heap.
	var room [16]string
	keys := room[:0]
	for k := range o.Fields {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = wire.AppendString(dst, k)
		dst = wire.AppendString(dst, o.Fields[k])
	}
	return dst
}

// DecodeObject decodes one row produced by AppendObject, returning it and
// the remaining bytes. The input may come off the network: every count is
// checked against the bytes that remain before anything is allocated.
func DecodeObject(data []byte) (*Object, []byte, error) {
	o := &Object{}
	var err error
	if o.ID, data, err = wire.ConsumeString(data); err != nil {
		return nil, data, err
	}
	if o.Schema, data, err = wire.ConsumeString(data); err != nil {
		return nil, data, err
	}
	if o.Owner, data, err = wire.ConsumeString(data); err != nil {
		return nil, data, err
	}
	if o.Site, data, err = wire.ConsumeString(data); err != nil {
		return nil, data, err
	}
	if o.Version, data, err = wire.ConsumeUint64(data); err != nil {
		return nil, data, err
	}
	if o.VV, data, err = vclock.DecodeVersion(data); err != nil {
		return nil, data, err
	}
	var created, updated, nfields uint64
	if created, data, err = wire.ConsumeUint64(data); err != nil {
		return nil, data, err
	}
	if updated, data, err = wire.ConsumeUint64(data); err != nil {
		return nil, data, err
	}
	o.Created = time.Unix(0, int64(created)).UTC()
	o.Updated = time.Unix(0, int64(updated)).UTC()
	if nfields, data, err = wire.ConsumeUint64(data); err != nil {
		return nil, data, err
	}
	// A field is two length prefixes at least.
	if nfields > uint64(len(data))/8 {
		return nil, data, fmt.Errorf("%w: %d fields in %d bytes", wire.ErrTruncated, nfields, len(data))
	}
	if nfields > 0 {
		o.Fields = make(map[string]string, nfields)
		for i := uint64(0); i < nfields; i++ {
			var k, v string
			if k, data, err = wire.ConsumeString(data); err != nil {
				return nil, data, err
			}
			if v, data, err = wire.ConsumeString(data); err != nil {
				return nil, data, err
			}
			o.Fields[k] = v
		}
	}
	return o, data, nil
}

// minRowBytes is the least a row AppendObject writes can take: four string
// prefixes, the version, a vector count, two timestamps and a field count.
const minRowBytes = 4*4 + 8 + 8 + 16 + 8

// ConsumeObjects reads a row list — a count, then that many rows written by
// AppendObject — at the cursor, holding the count against the bytes that
// remain before it allocates; no rows read as nil.
func ConsumeObjects(b *wire.Body) []*Object {
	n := b.Count(minRowBytes)
	if n == 0 {
		return nil
	}
	rows := make([]*Object, n)
	for i := range rows {
		rows[i] = wire.Consume(b, DecodeObject)
	}
	return rows
}

// ScanObject walks one row produced by AppendObject without decoding it: it
// returns the id, the encoded version vector (vclock.DecodeVersion reads it)
// and the remaining bytes, all as sub-slices of data, and allocates nothing.
// It makes every check DecodeObject makes — each string length, the vector's
// and the field list's counts against the bytes that remain — so it fails on
// exactly the inputs DecodeObject fails on. It is what lets a store compare,
// copy or skip a row it has no need to materialise.
func ScanObject(data []byte) (id, vv, rest []byte, err error) {
	if id, rest, err = skipString(data); err != nil {
		return nil, nil, data, err
	}
	for range 3 { // schema, owner, site
		if _, rest, err = skipString(rest); err != nil {
			return nil, nil, data, err
		}
	}
	if _, rest, err = wire.ConsumeUint64(rest); err != nil { // version
		return nil, nil, data, err
	}
	if vv, rest, err = vclock.ScanVersion(rest); err != nil {
		return nil, nil, data, err
	}
	var nfields uint64
	for range 3 { // created, updated, field count
		if nfields, rest, err = wire.ConsumeUint64(rest); err != nil {
			return nil, nil, data, err
		}
	}
	if nfields > uint64(len(rest))/8 {
		return nil, nil, data, fmt.Errorf("%w: %d fields in %d bytes", wire.ErrTruncated, nfields, len(rest))
	}
	for nfields *= 2; nfields > 0; nfields-- { // a key and a value each
		if _, rest, err = skipString(rest); err != nil {
			return nil, nil, data, err
		}
	}
	return id, vv, rest, nil
}

// skipString is wire.ConsumeString without the copy: the string's bytes as
// a sub-slice of data, under the same length checks.
func skipString(data []byte) (s, rest []byte, err error) {
	if len(data) < 4 {
		return nil, data, wire.ErrTruncated
	}
	n := uint64(binary.BigEndian.Uint32(data))
	if n >= wire.MaxStringLen {
		return nil, data, fmt.Errorf("%w: %d-byte string", wire.ErrOversize, n)
	}
	if uint64(len(data)) < 4+n {
		return nil, data, wire.ErrTruncated
	}
	return data[4 : 4+n], data[4+n:], nil
}
