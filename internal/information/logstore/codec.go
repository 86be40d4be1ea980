package logstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mocca/internal/information"
	"mocca/internal/wire"
)

// Record types. A WAL record is [type byte][seq uint64][type-specific
// payload]; the manifest and segment files reuse the framing with records
// of their own (see manifest.go and segment.go). A row is in the one row
// codec (information.AppendObject). A store written before that codec took
// its present form holds rows in an older one under record types of their
// own — format 1 (format1.go: recExecV1 in the WAL, recSegMetaV1 heading a
// segment's metadata) or format 2 (format2.go: recExecV2, recSegMetaV2) —
// which Open reads and nothing writes. A store written while a row could
// still be removed may also hold a removal in its WAL and tombstones in its
// segments (headed by recSegMetaV3 when the rows are in the current codec):
// Open folds them away (legacy.go), and nothing else reads or writes them.
const (
	recExecV1     byte = 1 // format 1: full post-state of one Exec mutation
	recRetired    byte = 2 // retired: a relationship edge; see ErrRetiredRecord
	recSnapHeader byte = 3 // manifest file header (historically: snapshot)
	recRemove     byte = 4 // legacy: the removal of one row

	// Segment-file records (see segment.go for the file layout).
	recSegRow    byte = 5  // one object row in a segment's data region
	recSegTomb   byte = 6  // legacy: one tombstone in a segment's data region
	recSegMetaV1 byte = 7  // format 1: segment metadata header
	recSegIdx    byte = 8  // a chunk of the sparse key index
	recSegBloom  byte = 9  // a chunk of the bloom filter bits
	recSegFoot   byte = 10 // fixed-size footer pointing at the metadata

	// Manifest records (see manifest.go).
	recManSeg byte = 11 // one live segment reference

	recExecV2    byte = 12 // format 2: full post-state of one Exec mutation
	recSegMetaV2 byte = 13 // format 2: segment metadata header

	recExec      byte = 14 // full post-state of one Exec mutation
	recSegMetaV3 byte = 15 // legacy: metadata header of a segment that may hold tombstones
	recSegMeta   byte = 16 // segment metadata header (count, seq + key ranges, schema ids)
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
	obj *information.Object // a row; nil for a legacy removal
	id  string              // a legacy removal's row id
}

// appendWALPayload encodes a WAL record payload (unframed).
func appendWALPayload(dst []byte, typ byte, seq uint64) []byte {
	dst = append(dst, typ)
	return appendUint64(dst, seq)
}

// decodeWALRecord decodes a framed record's payload into a walRecord.
func decodeWALRecord(payload []byte) (walRecord, error) {
	var rec walRecord
	if len(payload) < 1 {
		return rec, fmt.Errorf("%w: empty", ErrCorrupt)
	}
	rec.typ = payload[0]
	var err error
	if rec.seq, payload, err = consumeUint64(payload[1:]); err != nil {
		return rec, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	switch rec.typ {
	case recExec:
		rec.obj, _, err = information.DecodeObject(payload)
		if errors.Is(err, information.ErrUnknownSchema) {
			return rec, fmt.Errorf("record %d: %w", rec.seq, err)
		}
		if err != nil {
			return rec, fmt.Errorf("%w: object: %v", ErrCorrupt, err)
		}
	case recExecV2:
		if rec.obj, _, err = decodeObjectV2(payload); err != nil {
			return rec, fmt.Errorf("%w: format-2 object: %v", ErrCorrupt, err)
		}
	case recExecV1:
		if rec.obj, _, err = decodeObjectV1(payload); err != nil {
			return rec, fmt.Errorf("%w: format-1 object: %v", ErrCorrupt, err)
		}
	case recRetired:
		return rec, fmt.Errorf("record %d: %w", rec.seq, ErrRetiredRecord)
	default:
		return decodeRemoval(rec, payload)
	}
	return rec, nil
}

// The store's own records keep fixed-width fields: a big-endian uint64, and
// a string behind its big-endian uint32 length. Message bodies say both in
// varints (wire's codec helpers); these files keep the bytes they were
// written with.

func appendUint64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

func consumeUint64(data []byte) (uint64, []byte, error) {
	if len(data) < 8 {
		return 0, data, wire.ErrTruncated
	}
	return binary.BigEndian.Uint64(data), data[8:], nil
}

func appendString32(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func consumeString32(data []byte) (string, []byte, error) {
	if len(data) < 4 {
		return "", data, wire.ErrTruncated
	}
	// uint64 comparisons: a length with the high bit set must not overflow
	// int on a 32-bit platform and dodge the checks.
	n := binary.BigEndian.Uint32(data)
	if uint64(n) >= wire.MaxStringLen {
		return "", data, fmt.Errorf("%w: %d-byte string", wire.ErrOversize, n)
	}
	if uint64(len(data)) < 4+uint64(n) {
		return "", data, wire.ErrTruncated
	}
	return string(data[4 : 4+int(n)]), data[4+int(n):], nil
}
