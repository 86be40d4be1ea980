package logstore

import (
	"errors"
	"fmt"

	"mocca/internal/information"
	"mocca/internal/wire"
)

// Record types. A WAL record is [type byte][seq uint64][type-specific
// payload]; snapshot files reuse the object and relation encodings with a
// header record in front (see snapshot layout in logstore.go).
const (
	recExec       byte = 1 // full post-state of one Exec mutation
	recRelate     byte = 2 // one relationship edge
	recSnapHeader byte = 3 // manifest file header (historically: snapshot)
	recRemove     byte = 4 // eviction of one row (placement migration)

	// Segment-file records (see segment.go for the file layout).
	recSegRow   byte = 5  // one object row in a segment's data region
	recSegTomb  byte = 6  // one tombstone in a segment's data region
	recSegMeta  byte = 7  // segment metadata header (count, seq + key ranges)
	recSegIdx   byte = 8  // a chunk of the sparse key index
	recSegBloom byte = 9  // a chunk of the bloom filter bits
	recSegFoot  byte = 10 // fixed-size footer pointing at the metadata

	// Manifest records (see manifest.go).
	recManSeg byte = 11 // one live segment reference
)

// ErrCorrupt reports a record whose framing was intact but whose payload
// did not decode — same recovery treatment as a CRC failure.
var ErrCorrupt = errors.New("logstore: corrupt record payload")

// appendRelation appends one relationship edge.
func appendRelation(dst []byte, r information.Relation) []byte {
	dst = wire.AppendString(dst, r.From)
	dst = wire.AppendString(dst, string(r.Kind))
	dst = wire.AppendString(dst, r.To)
	return dst
}

// decodeRelation decodes one relationship edge.
func decodeRelation(data []byte) (information.Relation, []byte, error) {
	var r information.Relation
	var kind string
	var err error
	if r.From, data, err = wire.ConsumeString(data); err != nil {
		return r, data, err
	}
	if kind, data, err = wire.ConsumeString(data); err != nil {
		return r, data, err
	}
	r.Kind = information.RelKind(kind)
	if r.To, data, err = wire.ConsumeString(data); err != nil {
		return r, data, err
	}
	return r, data, nil
}

// walRecord is a decoded WAL record.
type walRecord struct {
	typ byte
	seq uint64
	obj *information.Object  // recExec
	rel information.Relation // recRelate
	id  string               // recRemove
}

// appendWALPayload encodes a WAL record payload (unframed).
func appendWALPayload(dst []byte, typ byte, seq uint64) []byte {
	dst = append(dst, typ)
	return wire.AppendUint64(dst, seq)
}

// decodeWALRecord decodes a framed record's payload into a walRecord.
func decodeWALRecord(payload []byte) (walRecord, error) {
	var rec walRecord
	if len(payload) < 1 {
		return rec, fmt.Errorf("%w: empty", ErrCorrupt)
	}
	rec.typ = payload[0]
	var err error
	if rec.seq, payload, err = wire.ConsumeUint64(payload[1:]); err != nil {
		return rec, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	switch rec.typ {
	case recExec:
		if rec.obj, _, err = information.DecodeObject(payload); err != nil {
			return rec, fmt.Errorf("%w: object: %v", ErrCorrupt, err)
		}
	case recRelate:
		if rec.rel, _, err = decodeRelation(payload); err != nil {
			return rec, fmt.Errorf("%w: relation: %v", ErrCorrupt, err)
		}
	case recRemove:
		if rec.id, _, err = wire.ConsumeString(payload); err != nil {
			return rec, fmt.Errorf("%w: remove: %v", ErrCorrupt, err)
		}
	default:
		return rec, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, rec.typ)
	}
	return rec, nil
}
