package replica

import (
	"encoding/binary"
	"fmt"
	"slices"

	"mocca/internal/information"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// The six messages of the anti-entropy protocol travel as hand-written
// binary bodies. Every body opens with a tag byte naming the message; the rest is
// built from wire's shared primitives — big-endian integers, uint32 or
// uvarint length-prefixed strings, uint64 or uvarint counts — with maps written in
// sorted key order, so equal messages encode to equal bytes. No body names
// its sender: the frame's source does. Rows are in the row codec's wire
// form (information.AppendWireObjects: a uvarint count, then each row with
// its id in information.AppendWireID's form and its sites in vclock's
// roster form); the durable log stores them with their ids and sites
// spelled. The ids of a sync request's digest and of a sync reply's
// want-list are in AppendWireID's form too, behind a uvarint count: an id
// a Space minted travels as its sequence and entropy.
//
// A digest body is the tag, a flags byte naming the sections present, then
// those sections in order. A request's tree frames are in
// wire.AppendTreeFrames' layout (a uvarint count, then the frames); a
// reply's children section is a uvarint count, then per mismatched
// internal node its packed path and its MerkleFanout child hashes (the
// children's paths follow from it). The marks section
// opens with the uvarint generation the sender gives it; with flagAck, the
// uvarint generation of the receiver's marks the sender holds; with
// flagDelta, the uvarint generation of the sender's own section it is a
// delta from and the big-endian CRC-32 of the whole section it rebuilds
// (information.MarksCheck). Then come the marks: the tree's section
// (information.AppendMarks), or with flagDelta the delta
// (information.AppendMarksDelta), carried as written and read in place.
// A reply's row list follows its sections. Digests and want-lists are in
// exactly the layout digestMapBytes and wantBytes measure, so
// Stats.DigestBytes is the encoded size of those sections.
//
// The tags have the high bit set, so a body in a hex dump names its
// message. 0x82 and 0x84, the replies with full child paths and a mirrored
// digest, are retired, and so is 0x85, the push that carried relationship
// edges beside its rows; so are 0x81 and 0x87, the digest request and
// reply whose marks section was always whole and carried no generation;
// so are 0x88, 0x89 and 0x8B, the sync reply, push and digest reply whose
// rows spelled their schema's name and keys; and so are 0x8A, 0x8C, 0x8D
// and 0x8E, the digest request whose frame count took eight bytes and the
// digest reply, sync reply and push whose rows spelled their sites behind
// an eight-byte count; and so are 0x83, the sync request whose digest
// spelled its ids behind eight-byte counts, and 0xF2, 0xF3 and 0xF4, the
// digest reply, sync reply and push whose rows spelled their ids (the
// digest reply's children count and the sync reply's want-list were
// eight bytes, and the want-list's ids spelled, too); and so is 0x86, the
// push reply that carried its applied and conflict counts in eight bytes
// each. The range took a second run, at 0xF1, when its first met gossip's,
// and a third, at 0xF9, when the second met gossip's again.
const (
	tagDigestReq  byte = 0xF1
	tagSyncReq    byte = 0xF9
	tagDigestResp byte = 0xFA
	tagSyncResp   byte = 0xFB
	tagPushReq    byte = 0xFC
	tagPushResp   byte = 0xFD
)

// childRecordSize is one record of a children section: the parent's
// packed path, then its child hashes.
const childRecordSize = 8 + 8*information.MerkleFanout

// Presence flags of the optional sections of a digest message.
const (
	flagMatch  byte = 1 << iota // digestResp.Match
	flagFrames                  // a tree-frame section follows
	flagHW                      // a marks section follows (possibly empty)
	flagAck                     // the marks name the receiver's generation the sender holds
	flagDelta                   // the marks are a delta, with its base and the whole section's check
	flagFull                    // digestResp.Full: the caller's marks could not be rebuilt
)

// --- encoders --------------------------------------------------------------

// AppendBinary implements encoding.BinaryAppender.
func (m digestReq) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagDigestReq, sectionFlags(false, false, m.Frames, m.Marks))
	return appendSections(b, m.Frames, m.Marks), nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m digestResp) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagDigestResp, sectionFlags(m.Match, m.Full, m.Children, m.Marks))
	b = appendSections(b, m.Children, m.Marks)
	return information.AppendWireObjects(b, m.Deltas), nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m syncReq) AppendBinary(b []byte) ([]byte, error) {
	b = appendDigest(append(b, tagSyncReq), m.Digest)
	b = wire.AppendUint64(b, uint64(len(m.Scope)))
	for _, bucket := range m.Scope {
		b = binary.BigEndian.AppendUint32(b, bucket)
	}
	return b, nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m syncResp) AppendBinary(b []byte) ([]byte, error) {
	b = information.AppendWireIDs(append(b, tagSyncResp), m.Want)
	return information.AppendWireObjects(b, m.Deltas), nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m pushReq) AppendBinary(b []byte) ([]byte, error) {
	return information.AppendWireObjects(append(b, tagPushReq), m.Objects), nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m pushResp) AppendBinary(b []byte) ([]byte, error) {
	return wire.AppendUvarint(append(b, tagPushResp), m.Applied), nil
}

func sectionFlags(match, full bool, frames []byte, marks marksMsg) byte {
	var f byte
	if match {
		f |= flagMatch
	}
	if full {
		f |= flagFull
	}
	if len(frames) > 0 {
		f |= flagFrames
	}
	if marks.Section != nil {
		f |= flagHW
		if marks.Ack != 0 {
			f |= flagAck
		}
		if marks.Base != 0 {
			f |= flagDelta
		}
	}
	return f
}

// appendSections writes the optional tree-frame (or children) and marks
// sections sectionFlags announced; consumeSections reads them back.
func appendSections(b, frames []byte, marks marksMsg) []byte {
	b = append(b, frames...)
	if marks.Section == nil {
		return b
	}
	b = wire.AppendUvarint(b, marks.Gen)
	if marks.Ack != 0 {
		b = wire.AppendUvarint(b, marks.Ack)
	}
	if marks.Base != 0 {
		b = binary.BigEndian.AppendUint32(wire.AppendUvarint(b, marks.Base), marks.Check)
	}
	return append(b, marks.Section...)
}

// size is the encoded length of the marks section appendSections writes:
// what Stats.MarksBytes counts.
func (m marksMsg) size() int {
	if m.Section == nil {
		return 0
	}
	n := wire.UvarintLen(m.Gen) + len(m.Section)
	if m.Ack != 0 {
		n += wire.UvarintLen(m.Ack)
	}
	if m.Base != 0 {
		n += wire.UvarintLen(m.Base) + 4
	}
	return n
}

// appendDigest writes an id→version-vector digest: a uvarint count, then
// per id in sorted order the id, in information.AppendWireID's form, and
// its vector in vclock's canonical form — digestMapBytes(d) bytes.
func appendDigest(b []byte, d map[string]vclock.Version) []byte {
	b = wire.AppendUvarint(b, uint64(len(d)))
	ids := make([]string, 0, len(d))
	for id := range d {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		b = information.AppendWireID(b, id)
		b = d[id].AppendBinary(b)
	}
	return b
}

// --- decoders --------------------------------------------------------------
//
// Each reads its body through a wire.Body cursor: the tag, one line per
// field, and Close for the first failure or trailing bytes.

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Frames and the
// marks section alias data, like an envelope's body does.
func (m *digestReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagDigestReq, "digestReq")
	flags := b.Flags(flagFrames | flagHW | flagAck | flagDelta)
	*m = digestReq{}
	m.Frames, m.Marks = consumeSections(&b, flags, consumeFrames)
	return b.Close()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Children and the
// marks section alias data, like an envelope's body does.
func (m *digestResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagDigestResp, "digestResp")
	flags := b.Flags(flagMatch | flagFrames | flagHW | flagAck | flagDelta | flagFull)
	*m = digestResp{Match: flags&flagMatch != 0, Full: flags&flagFull != 0}
	m.Children, m.Marks = consumeSections(&b, flags, consumeChildren)
	m.Deltas = information.ConsumeWireObjects(&b)
	return b.Close()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *syncReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagSyncReq, "syncReq")
	*m = syncReq{Digest: consumeDigest(&b)}
	if n := b.Count(4); n > 0 {
		m.Scope = make([]uint32, n)
		for i, raw := 0, b.Raw(4*n); i < n; i++ {
			m.Scope[i] = binary.BigEndian.Uint32(raw[4*i:])
		}
	}
	return b.Close()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *syncResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagSyncResp, "syncResp")
	*m = syncResp{Want: information.ConsumeWireIDs(&b), Deltas: information.ConsumeWireObjects(&b)}
	return b.Close()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *pushReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagPushReq, "pushReq")
	*m = pushReq{Objects: information.ConsumeWireObjects(&b)}
	return b.Close()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *pushResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagPushResp, "pushResp")
	*m = pushResp{Applied: b.Uvarint()}
	return b.Close()
}

// consumeFrames reads a request's tree frames: a uvarint count, then that
// many 16-byte frames, returned whole.
func consumeFrames(data []byte) ([]byte, []byte, error) {
	n, rest, err := wire.ConsumeUvarint(data)
	return records(data, rest, n, err, 16)
}

// consumeChildren reads a reply's children section: a uvarint count, then
// that many records, returned whole.
func consumeChildren(data []byte) ([]byte, []byte, error) {
	n, rest, err := wire.ConsumeUvarint(data)
	return records(data, rest, n, err, childRecordSize)
}

// records cuts a section from data whose count n, read where rest starts,
// counts records of size bytes; a count past the bytes left is refused.
func records(data, rest []byte, n uint64, err error, size int) ([]byte, []byte, error) {
	if err == nil && n > uint64(len(rest)/size) {
		err = fmt.Errorf("%w: count %d in %d bytes", wire.ErrBadBody, n, len(rest))
	}
	if err != nil {
		return nil, data, err
	}
	k := len(data) - len(rest) + size*int(n)
	return data[:k:k], data[k:], nil
}

// consumeSections reads the optional frame and marks sections the flags
// announce. Both are returned still encoded, aliasing data: the frame
// section, which section reads — tree frames or children records — and
// the marks, whole or a delta. An ack or a base of generation 0, or
// either flag without a marks section, is refused: each has one encoding.
func consumeSections(b *wire.Body, flags byte, section func([]byte) ([]byte, []byte, error)) (frames []byte, marks marksMsg) {
	if flags&flagFrames != 0 {
		frames = wire.Consume(b, section)
	}
	if flags&flagHW == 0 {
		if flags&(flagAck|flagDelta) != 0 {
			wire.Consume(b, func(data []byte) (struct{}, []byte, error) {
				return struct{}{}, data, fmt.Errorf("%w: a marks generation without a marks section", wire.ErrBadBody)
			})
		}
		return frames, marks
	}
	marks.Gen = b.Uvarint()
	if flags&flagAck != 0 {
		marks.Ack = wire.Consume(b, consumeGeneration)
	}
	if flags&flagDelta == 0 {
		marks.Section = wire.Consume(b, information.SkipMarks)
		return frames, marks
	}
	marks.Base = wire.Consume(b, consumeGeneration)
	if check := b.Raw(4); check != nil {
		marks.Check = binary.BigEndian.Uint32(check)
	}
	marks.Section = wire.Consume(b, information.SkipMarksDelta)
	return frames, marks
}

// consumeGeneration reads a generation a flag announced: never 0, which
// the flag's absence says.
func consumeGeneration(data []byte) (uint64, []byte, error) {
	gen, rest, err := wire.ConsumeUvarint(data)
	if err == nil && gen == 0 {
		return 0, data, fmt.Errorf("%w: a marks generation of 0", wire.ErrBadBody)
	}
	return gen, rest, err
}

// consumeDigest reads a digest written by appendDigest; an empty digest
// decodes as nil.
func consumeDigest(b *wire.Body) map[string]vclock.Version {
	n := b.UvarintCount(1 + 1) // id + vector count
	if n == 0 {
		return nil
	}
	d := make(map[string]vclock.Version, n)
	for range n {
		id := wire.Consume(b, information.ConsumeWireID)
		d[id] = wire.Consume(b, vclock.DecodeVersion)
	}
	return d
}
