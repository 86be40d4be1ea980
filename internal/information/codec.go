package information

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"time"

	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// AppendObject appends the canonical binary encoding of one object row,
// each field in as few bytes as it can be said in:
//
//	id                       a uvarint length and its bytes; in the wire
//	                         form AppendWireID's: an id a Space minted
//	                         by its sequence and entropy, any other
//	                         spelled behind its length plus 1
//	schema                   compact form: a 0 byte, then the schema's
//	                         content id (schemaID) in 4 big-endian bytes;
//	                         spelled form: a uvarint of the name's length
//	                         plus 1, then the name
//	owner, site              each a uvarint length and its bytes; in the
//	                         wire form the site is in vclock's roster form
//	vector                   vclock's AppendBinary: a uvarint count, then per
//	                         site in sorted order a uvarint-prefixed name and
//	                         a uvarint counter; in the wire form
//	                         Version.AppendWire, each site in the roster form
//	created                  the big-endian uint64 of its UnixNano
//	updated                  a zigzag varint: Updated less Created, in
//	                         nanoseconds, modulo 2^64
//	fields                   compact form: a uvarint bitmap, bit i set when
//	                         the schema's i-th declared field is present,
//	                         then the present values in declared order, each
//	                         uvarint-prefixed; spelled form: a uvarint count,
//	                         then per key in sorted order the uvarint-prefixed
//	                         key and value
//
// A row takes the compact form when its Schema is exactly a name this
// process registered (SchemaRegistry.Register) and every key is one of that
// schema's fields, which is every row a Space commits; any other row
// spells its schema and keys. Version is not written: every row a Space
// commits has its vector's sum for a Version, and DecodeObject sets it so.
// Equal rows encode to equal bytes, which is what lets recovery be verified
// byte-for-byte. It is the one row codec of the repository, in two forms:
// the durable log (logstore's WAL and segments) stores rows in this one,
// and the replication planes (replica.* and gossip.rumor/graft bodies)
// carry them in AppendWireObject's, which differs only in how it says
// the id and the sites. Stores written before it hold rows in older
// layouts, which logstore alone reads.
func AppendObject(dst []byte, o *Object) []byte { return appendObject(dst, o, false) }

// AppendWireObject appends a row in the form the bodies that carry rows
// take: AppendObject's, but for its id, in AppendWireID's form — 7 bytes
// for an id a Space minted, where the stored form spells 17 or so — and
// its writer site and its vector's sites, each said in vclock's roster
// form (vclock.AppendSite, Version.AppendWire) — a byte for an enrolled
// site where the stored form spells it. The roster is per process and
// never reaches disk, and a store reads each row's id where it lies, so a
// stored row keeps AppendObject's form.
func AppendWireObject(dst []byte, o *Object) []byte { return appendObject(dst, o, true) }

// AppendWireObjects appends a row list in the wire form: a uvarint count,
// then each row. ConsumeWireObjects reads it back.
func AppendWireObjects(dst []byte, rows []*Object) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(rows)))
	for _, o := range rows {
		dst = appendObject(dst, o, true)
	}
	return dst
}

func appendObject(dst []byte, o *Object, roster bool) []byte {
	if roster {
		dst = AppendWireID(dst, o.ID)
	} else {
		dst = wire.AppendString(dst, o.ID)
	}
	sh, set := compactShape(o)
	if sh != nil {
		dst = binary.BigEndian.AppendUint32(append(dst, 0), sh.id)
	} else {
		dst = append(wire.AppendUvarint(dst, uint64(len(o.Schema))+1), o.Schema...)
	}
	dst = wire.AppendString(dst, o.Owner)
	if roster {
		dst = o.VV.AppendWire(vclock.AppendSite(dst, o.Site))
	} else {
		dst = o.VV.AppendBinary(wire.AppendString(dst, o.Site))
	}
	created := o.Created.UnixNano()
	dst = binary.BigEndian.AppendUint64(dst, uint64(created))
	dst = wire.AppendVarint(dst, o.Updated.UnixNano()-created)
	if sh != nil {
		dst = wire.AppendUvarint(dst, set)
		for i, k := range sh.fields {
			if set&(1<<i) != 0 {
				dst = wire.AppendString(dst, o.Fields[k])
			}
		}
		return dst
	}
	dst = wire.AppendUvarint(dst, uint64(len(o.Fields)))
	// Room on the stack for the rows the system writes; a wider one spills
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
// the remaining bytes; its Version is its vector's sum. The input may come
// off the network: ScanObject checks every count and length against the
// bytes that remain before anything is allocated, and a compact row whose
// schema id this process has neither registered nor learned (LearnSchema)
// is refused with an error wrapping ErrUnknownSchema. The row owns what it holds: the id is a copy
// of its own, because ids outlive rows as keys; a compact row's schema
// name and keys are the registered schema's own strings, which never
// change; and every other string is a substring of one copy of the row's
// remaining text — one per row, so a row kept from a message pins nothing
// else of it.
func DecodeObject(data []byte) (*Object, []byte, error) { return decodeObject(data, false) }

// DecodeWireObject decodes one row produced by AppendWireObject, as
// DecodeObject decodes AppendObject's. An id said by its parts is rebuilt
// (ConsumeWireID), one allocation as a spelled one's copy is, and an id
// AppendWireID never writes is refused with an error wrapping
// wire.ErrBadBody. A site this process enrolled is the roster's own
// string; a site index past the roster is refused with an error wrapping
// vclock.ErrUnknownSite, and a vector out of name order, or naming an
// enrolled site by its spelling, with one wrapping vclock.ErrBadVersion.
func DecodeWireObject(data []byte) (*Object, []byte, error) { return decodeObject(data, true) }

func decodeObject(data []byte, roster bool) (*Object, []byte, error) {
	sc, rest, err := scanObject(data, roster)
	if err != nil {
		return nil, rest, err
	}
	var sh *shape
	if sc.compact {
		if sh = shapes.Load().byID[sc.schemaID]; sh == nil {
			return nil, data, fmt.Errorf("%w: row %q names id %08x", ErrUnknownSchema, sc.id, sc.schemaID)
		}
		if sc.set>>len(sh.fields) != 0 {
			return nil, data, fmt.Errorf("%w: row %q sets field bits %#x of %q's %d", wire.ErrBadBody, sc.id, sc.set, sh.name, len(sh.fields))
		}
	}
	// The stored vector's names are its bytes less a few of framing: room
	// enough. The wire form's sites are not in the text.
	var text rowText
	if roster {
		text.Grow(sc.text)
	} else {
		text.Grow(sc.text + len(sc.vv))
	}
	o := &Object{ID: sc.id.String()}
	r := sc.afterID
	if sh != nil {
		o.Schema = sh.name
		takeUvarint(&r)
		r = r[4:]
	} else {
		o.Schema = text.cutN(&r, int(takeUvarint(&r))-1)
	}
	o.Owner = text.cut(&r)
	if roster {
		// The sites scanObject checked read back the same: the roster
		// only grows, unless it enrolled a spelled name since, which is
		// refused.
		if o.Site, r, err = vclock.ConsumeSite(r); err == nil {
			o.VV, r, err = vclock.DecodeWire(r)
		}
		if err != nil {
			return nil, data, err
		}
		o.Version = o.VV.Sum()
	} else {
		o.Site = text.cut(&r)
		if nvv := takeUvarint(&r); nvv > 0 {
			o.VV = make(vclock.Version, nvv)
			for range nvv {
				site := text.cut(&r)
				c := takeUvarint(&r)
				o.VV[site] = c
				o.Version += c
			}
			if len(o.VV) != int(nvv) { // a site named twice: its later entry stands
				o.Version = o.VV.Sum()
			}
		}
	}
	created := int64(binary.BigEndian.Uint64(r))
	r = r[8:]
	delta, n := binary.Varint(r)
	r = r[n:]
	o.Created = time.Unix(0, created).UTC()
	o.Updated = time.Unix(0, created+delta).UTC()
	if sh != nil {
		takeUvarint(&r)
		if sc.set != 0 {
			o.Fields = make(map[string]string, bits.OnesCount64(sc.set))
			for i, k := range sh.fields {
				if sc.set&(1<<i) != 0 {
					o.Fields[k] = text.cut(&r)
				}
			}
		}
	} else if nfields := takeUvarint(&r); nfields > 0 {
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

// cut copies the uvarint-prefixed string at the front of *r, which
// ScanObject has checked, into the text and returns it as a substring.
func (t *rowText) cut(r *[]byte) string { return t.cutN(r, int(takeUvarint(r))) }

// cutN is cut for the n bytes at the front of *r.
func (t *rowText) cutN(r *[]byte, n int) string {
	//lint:allow errdrop strings.Builder's Write always returns a nil error
	t.Write((*r)[:n])
	*r = (*r)[n:]
	s := t.String()
	return s[len(s)-n:]
}

// takeUvarint takes the uvarint, which ScanObject has checked, at the front
// of *r, reading a one-byte value without the general loop.
func takeUvarint(r *[]byte) uint64 {
	if b := (*r)[0]; b < 0x80 {
		*r = (*r)[1:]
		return uint64(b)
	}
	v, n := binary.Uvarint(*r)
	*r = (*r)[n:]
	return v
}

// minRowBytes is the least a row AppendObject or AppendWireObject writes can
// take: four string lengths (a spelled schema's) or roster entries, a
// vector count, the creation time, the update's delta and a field count.
// Past it a row holds at least two bytes per vector entry and per field
// beside its text.
const minRowBytes = 4 + 1 + 8 + 1 + 1

// ConsumeWireObjects reads a row list written by AppendWireObjects at the
// cursor, holding the count against the bytes that remain before it
// allocates; no rows read as nil.
func ConsumeWireObjects(b *wire.Body) []*Object {
	n := b.Count(minRowBytes)
	if n == 0 {
		return nil
	}
	rows := make([]*Object, n)
	for i := range rows {
		rows[i] = wire.Consume(b, DecodeWireObject)
	}
	return rows
}

// ObjectID returns the id a row written by AppendObject starts with, as a
// sub-slice of data, under the checks ScanObject makes of it; nothing past
// the id is read. It is how a store that passes over rows to find one
// reads each row's id where it lies.
func ObjectID(data []byte) ([]byte, error) {
	id, _, err := wire.SkipString(data)
	return id, err
}

// ScanObject walks one row produced by AppendObject without decoding it: it
// returns the id, the encoded version vector (vclock.DecodeVersion reads it)
// and the remaining bytes, all as sub-slices of data, and allocates nothing.
// It reads both forms without the schema table — a compact row's bitmap
// says how many values follow — and makes every check there is: each
// uvarint within 64 bits, each string length within wire's limit and the
// bytes that remain, the vector's and the field list's counts against what
// the remaining bytes can hold, the update's delta within 64 bits.
// DecodeObject makes no other check of the bytes, so the two fail on
// exactly the same inputs, with an error that wraps wire's — except a
// compact row whose schema id the table lacks, or whose bitmap names a
// field past its schema's, which only DecodeObject refuses. It is what lets
// a store compare, copy or skip a row it has no need to materialise.
func ScanObject(data []byte) (id, vv, rest []byte, err error) {
	sc, rest, err := scanObject(data, false)
	return sc.id.spelled, sc.vv, rest, err
}

// ObjectSchemaID returns the content id a compact row written by
// AppendObject names for its schema, with compact false for a row that
// spells its schema; nothing past the schema is read or checked.
func ObjectSchemaID(data []byte) (id uint32, compact bool, err error) {
	_, rest, err := wire.SkipString(data)
	if err != nil {
		return 0, false, err
	}
	marker, rest, err := wire.ConsumeUvarint(rest)
	if err != nil || marker != 0 {
		return 0, false, err
	}
	if len(rest) < 4 {
		return 0, false, wire.ErrTruncated
	}
	return binary.BigEndian.Uint32(rest), true, nil
}

// rowScan is what scanObject finds in a row: its id (spelled, as a
// sub-slice, or by its parts), the bytes after it and its encoded vector
// as sub-slices, the length of the text DecodeObject copies (every string
// but the id, the vector's names and what a compact row takes from its
// schema) and, for a compact row, its schema id and field bitmap.
type rowScan struct {
	id          wireID
	afterID, vv []byte
	text        int
	compact     bool
	schemaID    uint32
	set         uint64
}

// scanObject is ScanObject, also measuring the row's text; with roster it
// walks the wire form, whose id it reads with scanWireID.
func scanObject(data []byte, roster bool) (sc rowScan, rest []byte, err error) {
	fail := func(err error) (rowScan, []byte, error) { return rowScan{}, data, err }
	if roster {
		sc.id, rest, err = scanWireID(data)
	} else {
		sc.id.spelled, rest, err = wire.SkipString(data)
	}
	if err != nil {
		return fail(err)
	}
	sc.afterID = rest
	marker, rest, err := wire.ConsumeUvarint(rest)
	switch {
	case err != nil:
		return fail(err)
	case marker == 0:
		if len(rest) < 4 {
			return fail(fmt.Errorf("%w: a schema id in %d bytes", wire.ErrTruncated, len(rest)))
		}
		sc.compact, sc.schemaID, rest = true, binary.BigEndian.Uint32(rest), rest[4:]
	case marker-1 >= wire.MaxStringLen:
		return fail(fmt.Errorf("%w: %d-byte schema name", wire.ErrOversize, marker-1))
	case marker-1 > uint64(len(rest)):
		return fail(fmt.Errorf("%w: %d-byte schema name in %d bytes", wire.ErrTruncated, marker-1, len(rest)))
	default:
		sc.text, rest = int(marker-1), rest[marker-1:]
	}
	s, rest, err := wire.SkipString(rest) // owner
	if err != nil {
		return fail(err)
	}
	sc.text += len(s)
	if roster {
		if rest, err = vclock.SkipSite(rest); err == nil {
			sc.vv, rest, err = vclock.ScanWire(rest)
		}
	} else if s, rest, err = wire.SkipString(rest); err == nil {
		sc.text += len(s)
		sc.vv, rest, err = vclock.ScanVersion(rest)
	}
	if err != nil {
		return fail(err)
	}
	if len(rest) < 8 { // created
		return fail(wire.ErrTruncated)
	}
	rest = rest[8:]
	if _, rest, err = wire.ConsumeVarint(rest); err != nil { // updated
		return fail(err)
	}
	n, rest, err := wire.ConsumeUvarint(rest) // the bitmap, or the field count
	if err != nil {
		return fail(err)
	}
	var strs uint64 // the strings that follow, a length prefix each at least
	switch {
	case sc.compact:
		sc.set, strs = n, uint64(bits.OnesCount64(n))
	case n <= uint64(len(rest))/2:
		strs = 2 * n // a key and a value each
	default:
		strs = math.MaxUint64
	}
	if strs > uint64(len(rest)) {
		return fail(fmt.Errorf("%w: %d fields in %d bytes", wire.ErrTruncated, n, len(rest)))
	}
	for ; strs > 0; strs-- {
		if s, rest, err = wire.SkipString(rest); err != nil {
			return fail(err)
		}
		sc.text += len(s)
	}
	return sc, rest, nil
}
