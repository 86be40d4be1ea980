package logstore

import (
	"errors"
	"fmt"

	"mocca/internal/information"
	"mocca/internal/wire"
)

// Record types. A WAL record is [type byte][seq uint64][type-specific
// payload]; the manifest and segment files reuse the framing with records
// of their own (see manifest.go and segment.go).
const (
	recExec       byte = 1 // full post-state of one Exec mutation
	recRetired    byte = 2 // retired: a relationship edge; see ErrRetiredRecord
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

// ErrRetiredRecord refuses a store that holds relationship edges — a
// type-2 WAL record or a manifest counting relation records — written
// before the store kept rows only. Such a store is not opened: read as a
// torn tail, the edge would silently take every row logged after it along.
var ErrRetiredRecord = errors.New("logstore: store holds relationship edges, a retired record type")

// walRecord is a decoded WAL record.
type walRecord struct {
	typ byte
	seq uint64
	obj *information.Object // recExec
	id  string              // recRemove
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
	case recRetired:
		return rec, fmt.Errorf("record %d: %w", rec.seq, ErrRetiredRecord)
	case recRemove:
		if rec.id, _, err = wire.ConsumeString(payload); err != nil {
			return rec, fmt.Errorf("%w: remove: %v", ErrCorrupt, err)
		}
	default:
		return rec, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, rec.typ)
	}
	return rec, nil
}
