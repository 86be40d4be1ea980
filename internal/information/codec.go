package information

import (
	"encoding/binary"
	"fmt"
	"strings"
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
// (replica.* and gossip.rumor/graft bodies) carry rows in exactly this form.
func AppendObject(dst []byte, o *Object) []byte {
	dst = wire.AppendString(dst, o.ID)
	dst = wire.AppendString(dst, o.Schema)
	dst = wire.AppendString(dst, o.Owner)
	dst = wire.AppendString(dst, o.Site)
	dst = wire.AppendUint64(dst, o.Version)
	dst = o.VV.AppendBinary(dst)
	dst = wire.AppendUint64(dst, uint64(o.Created.UnixNano()))
	dst = wire.AppendUint64(dst, uint64(o.Updated.UnixNano()))
	return wire.AppendStringMap(dst, o.Fields)
}

// DecodeObject decodes one row produced by AppendObject, returning it and
// the remaining bytes. The input may come off the network: ScanObject
// checks every count and length against the bytes that remain before
// anything is allocated. The row owns what it holds: the id is a copy of its
// own, because ids outlive rows as keys, and every other string is a
// substring of one exact-size copy of the row's remaining text — one per row,
// so a row kept from a message pins nothing else of it.
func DecodeObject(data []byte) (*Object, []byte, error) {
	id, vv, nfields, rest, err := scanObject(data)
	if err != nil {
		return nil, rest, err
	}
	nvv := binary.BigEndian.Uint64(vv)
	var text rowText
	text.Grow(len(data) - len(rest) - len(id) - minRowBytes - 12*int(nvv) - 8*int(nfields))
	o := &Object{ID: string(id)}
	r := data[4+len(id):]
	o.Schema = text.cut(&r)
	o.Owner = text.cut(&r)
	o.Site = text.cut(&r)
	o.Version = takeUint64(&r)
	r = r[8:] // the vector's count, nvv
	if nvv > 0 {
		o.VV = make(vclock.Version, nvv)
		for range nvv {
			site := text.cut(&r)
			o.VV[site] = takeUint64(&r)
		}
	}
	o.Created = time.Unix(0, int64(takeUint64(&r))).UTC()
	o.Updated = time.Unix(0, int64(takeUint64(&r))).UTC()
	r = r[8:] // the field count, nfields
	if nfields > 0 {
		o.Fields = make(map[string]string, nfields)
		for range nfields {
			k := text.cut(&r)
			o.Fields[k] = text.cut(&r)
		}
	}
	return o, rest, nil
}

// rowText is the one copy of a row's text that DecodeObject hands out in
// pieces. Bytes a Builder holds are never written again, so a substring of
// what it has built stays valid as it grows.
type rowText struct{ strings.Builder }

// cut copies the length-prefixed string at the front of *r, which
// ScanObject has checked, into the text and returns it as a substring.
func (t *rowText) cut(r *[]byte) string {
	n := int(binary.BigEndian.Uint32(*r))
	//lint:allow errdrop strings.Builder's Write always returns a nil error
	t.Write((*r)[4 : 4+n])
	*r = (*r)[4+n:]
	s := t.String()
	return s[len(s)-n:]
}

// takeUint64 takes the big-endian uint64 at the front of *r.
func takeUint64(r *[]byte) uint64 {
	v := binary.BigEndian.Uint64(*r)
	*r = (*r)[8:]
	return v
}

// minRowBytes is the least a row AppendObject writes can take: four string
// prefixes, the version, a vector count, two timestamps and a field count.
// Past it a row holds 12 bytes per vector entry and 8 per field beside its
// text.
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
// It makes every check there is — each string length, the vector's and the
// field list's counts against the bytes that remain — and DecodeObject makes
// no other, so the two fail on exactly the same inputs. It is what lets a
// store compare, copy or skip a row it has no need to materialise.
func ScanObject(data []byte) (id, vv, rest []byte, err error) {
	id, vv, _, rest, err = scanObject(data)
	return id, vv, rest, err
}

// scanObject is ScanObject, also returning the field count.
func scanObject(data []byte) (id, vv []byte, nfields uint64, rest []byte, err error) {
	if id, rest, err = skipString(data); err != nil {
		return nil, nil, 0, data, err
	}
	for range 3 { // schema, owner, site
		if _, rest, err = skipString(rest); err != nil {
			return nil, nil, 0, data, err
		}
	}
	if _, rest, err = wire.ConsumeUint64(rest); err != nil { // version
		return nil, nil, 0, data, err
	}
	if vv, rest, err = vclock.ScanVersion(rest); err != nil {
		return nil, nil, 0, data, err
	}
	for range 3 { // created, updated, field count
		if nfields, rest, err = wire.ConsumeUint64(rest); err != nil {
			return nil, nil, 0, data, err
		}
	}
	if nfields > uint64(len(rest))/8 {
		return nil, nil, 0, data, fmt.Errorf("%w: %d fields in %d bytes", wire.ErrTruncated, nfields, len(rest))
	}
	for n := 2 * nfields; n > 0; n-- { // a key and a value each
		if _, rest, err = skipString(rest); err != nil {
			return nil, nil, 0, data, err
		}
	}
	return id, vv, nfields, rest, nil
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
