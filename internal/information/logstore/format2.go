package logstore

import (
	"time"

	"mocca/internal/information"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// Format 2 is the row layout of stores written before a row named its
// schema by content id: the same as a spelled row of the current codec
// (information.AppendObject) but for two things — the schema name's
// uvarint length is the length itself, not the length plus one, and the
// fields are always a uvarint count and, per key in sorted order, the
// uvarint-prefixed key and value. A tombstone in a format-2 segment is its
// id, uvarint-prefixed, as now. WAL records of type recExecV2 and segments
// whose metadata header is recSegMetaV2 hold it; only Open reads it, as it
// reads format 1 (format1.go).

// decodeObjectV2 decodes one format-2 row, returning it and the remaining
// bytes. It accepts what the format's own decoder accepted, checks each
// count against the bytes that remain before it allocates, and sets the
// Version to the vector's sum, as that decoder did.
func decodeObjectV2(data []byte) (*information.Object, []byte, error) {
	b := oldReader{rest: data}
	str := func() (s string) {
		if b.err == nil {
			s, b.rest, b.err = wire.ConsumeString(b.rest)
		}
		return s
	}
	o := &information.Object{ID: str(), Schema: str(), Owner: str(), Site: str()}
	if b.err == nil {
		o.VV, b.rest, b.err = vclock.DecodeVersion(b.rest)
	}
	o.Version = o.VV.Sum()
	created := int64(b.uint64())
	var delta int64
	if b.err == nil {
		delta, b.rest, b.err = wire.ConsumeVarint(b.rest)
	}
	o.Created = time.Unix(0, created).UTC()
	o.Updated = time.Unix(0, created+delta).UTC()
	var n uint64
	if b.err == nil {
		n, b.rest, b.err = wire.ConsumeUvarint(b.rest)
	}
	if b.err == nil && n > uint64(len(b.rest))/2 { // a key's and a value's length
		b.err = wire.ErrTruncated
	}
	if b.err == nil && n > 0 {
		o.Fields = make(map[string]string, n)
		for range n {
			k := str()
			o.Fields[k] = str()
		}
	}
	if b.err != nil {
		return nil, data, b.err
	}
	return o, b.rest, nil
}
