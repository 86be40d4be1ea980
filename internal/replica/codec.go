package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"mocca/internal/information"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// The six messages of the anti-entropy protocol travel as hand-written
// binary bodies (wire.EncodeBody picks a message's own AppendBinary over
// JSON). Every body opens with a tag byte naming the message; the rest is
// built from wire's shared primitives — big-endian integers, uint32
// length-prefixed strings, uint64 counts — with maps written in sorted key
// order, so equal messages encode to equal bytes. Rows are in the one row
// codec (information.AppendObject), the form the durable log stores them
// in. Tree frames are carried as their wire.AppendTreeFrames encoding,
// high-water maps and id→version-vector digests in exactly the layout
// hwBytes and digestMapBytes measure, so Stats.DigestBytes is the encoded
// size of those sections.
//
// The tags have the high bit set: no JSON text starts with such a byte, so
// a JSON decoder handed a binary body — or a binary decoder handed JSON —
// fails on the first byte instead of misreading the rest.
const (
	tagDigestReq  byte = 0x81
	tagDigestResp byte = 0x82
	tagSyncReq    byte = 0x83
	tagSyncResp   byte = 0x84
	tagPushReq    byte = 0x85
	tagPushResp   byte = 0x86
)

// Presence flags of the optional sections of a digest message.
const (
	flagMatch  byte = 1 << iota // digestResp.Match
	flagFrames                  // a tree-frame section follows
	flagHW                      // a high-water section follows (possibly empty)
)

// errBadBody reports a body that is not the expected message: wrong tag,
// a count the remaining bytes cannot hold, or bytes left over.
var errBadBody = errors.New("replica: bad message body")

// --- encoders --------------------------------------------------------------

// AppendBinary implements encoding.BinaryAppender.
func (m digestReq) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagDigestReq, sectionFlags(false, m.Frames, m.HW))
	b = wire.AppendString(b, m.Site)
	return appendSections(b, m.Frames, m.HW), nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m digestResp) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagDigestResp, sectionFlags(m.Match, m.Frames, m.HW))
	b = wire.AppendString(b, m.Site)
	b = appendSections(b, m.Frames, m.HW)
	return appendRows(b, m.Deltas), nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m syncReq) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagSyncReq)
	b = wire.AppendString(b, m.Site)
	b = appendDigest(b, m.Digest)
	b = wire.AppendUint64(b, uint64(len(m.Scope)))
	for _, bucket := range m.Scope {
		b = binary.BigEndian.AppendUint32(b, bucket)
	}
	return b, nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m syncResp) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagSyncResp)
	b = wire.AppendString(b, m.Site)
	b = appendDigest(b, m.Digest)
	return appendRows(b, m.Deltas), nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m pushReq) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagPushReq)
	b = wire.AppendString(b, m.Site)
	b = appendRows(b, m.Objects)
	b = wire.AppendUint64(b, uint64(len(m.Relations)))
	for _, rel := range m.Relations {
		b = wire.AppendString(b, rel.From)
		b = wire.AppendString(b, rel.Kind)
		b = wire.AppendString(b, rel.To)
	}
	return b, nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m pushResp) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagPushResp)
	b = wire.AppendUint64(b, uint64(m.Applied))
	b = wire.AppendUint64(b, uint64(m.Conflicts))
	b = wire.AppendUint64(b, uint64(len(m.Refused)))
	for _, id := range m.Refused {
		b = wire.AppendString(b, id)
	}
	return b, nil
}

func sectionFlags(match bool, frames []byte, hw map[string]uint64) byte {
	var f byte
	if match {
		f |= flagMatch
	}
	if len(frames) > 0 {
		f |= flagFrames
	}
	if hw != nil {
		f |= flagHW
	}
	return f
}

// appendSections writes the optional tree-frame and high-water sections
// sectionFlags announced; consumeSections reads them back.
func appendSections(b, frames []byte, hw map[string]uint64) []byte {
	b = append(b, frames...)
	if hw != nil {
		b = appendHW(b, hw)
	}
	return b
}

// appendHW writes a high-water map: count, then per site in sorted order
// the name and the mark — hwBytes(hw) bytes.
func appendHW(b []byte, hw map[string]uint64) []byte {
	b = wire.AppendUint64(b, uint64(len(hw)))
	sites := make([]string, 0, len(hw))
	for s := range hw {
		sites = append(sites, s)
	}
	slices.Sort(sites)
	for _, s := range sites {
		b = wire.AppendString(b, s)
		b = wire.AppendUint64(b, hw[s])
	}
	return b
}

// appendDigest writes an id→version-vector digest: count, then per id in
// sorted order the id and its vector in vclock's canonical form —
// digestMapBytes(d) bytes.
func appendDigest(b []byte, d map[string]vclock.Version) []byte {
	b = wire.AppendUint64(b, uint64(len(d)))
	ids := make([]string, 0, len(d))
	for id := range d {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		b = wire.AppendString(b, id)
		b = d[id].AppendBinary(b)
	}
	return b
}

// appendRows writes a row list: count, then each row in the shared row
// codec, in the order given (senders sort by id).
func appendRows(b []byte, rows []*information.Object) []byte {
	b = wire.AppendUint64(b, uint64(len(rows)))
	for _, o := range rows {
		b = information.AppendObject(b, o)
	}
	return b
}

// --- decoders --------------------------------------------------------------

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Frames aliases
// data, like an envelope's body does.
func (m *digestReq) UnmarshalBinary(data []byte) error {
	data, flags, err := openDigestBody(data, tagDigestReq, "digestReq", flagFrames|flagHW)
	if err != nil {
		return err
	}
	*m = digestReq{}
	if m.Site, data, err = wire.ConsumeString(data); err != nil {
		return err
	}
	if m.Frames, m.HW, data, err = consumeSections(data, flags); err != nil {
		return err
	}
	return closeBody(data)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Frames aliases
// data, like an envelope's body does.
func (m *digestResp) UnmarshalBinary(data []byte) error {
	data, flags, err := openDigestBody(data, tagDigestResp, "digestResp", flagMatch|flagFrames|flagHW)
	if err != nil {
		return err
	}
	*m = digestResp{Match: flags&flagMatch != 0}
	if m.Site, data, err = wire.ConsumeString(data); err != nil {
		return err
	}
	if m.Frames, m.HW, data, err = consumeSections(data, flags); err != nil {
		return err
	}
	if m.Deltas, data, err = consumeRows(data); err != nil {
		return err
	}
	return closeBody(data)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *syncReq) UnmarshalBinary(data []byte) error {
	data, err := openBody(data, tagSyncReq, "syncReq")
	if err != nil {
		return err
	}
	*m = syncReq{}
	if m.Site, data, err = wire.ConsumeString(data); err != nil {
		return err
	}
	if m.Digest, data, err = consumeDigest(data); err != nil {
		return err
	}
	var n uint64
	if n, data, err = consumeCount(data, 4); err != nil {
		return err
	}
	if n > 0 {
		m.Scope = make([]uint32, n)
		for i := range m.Scope {
			m.Scope[i] = binary.BigEndian.Uint32(data)
			data = data[4:]
		}
	}
	return closeBody(data)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *syncResp) UnmarshalBinary(data []byte) error {
	data, err := openBody(data, tagSyncResp, "syncResp")
	if err != nil {
		return err
	}
	*m = syncResp{}
	if m.Site, data, err = wire.ConsumeString(data); err != nil {
		return err
	}
	if m.Digest, data, err = consumeDigest(data); err != nil {
		return err
	}
	if m.Deltas, data, err = consumeRows(data); err != nil {
		return err
	}
	return closeBody(data)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *pushReq) UnmarshalBinary(data []byte) error {
	data, err := openBody(data, tagPushReq, "pushReq")
	if err != nil {
		return err
	}
	*m = pushReq{}
	if m.Site, data, err = wire.ConsumeString(data); err != nil {
		return err
	}
	if m.Objects, data, err = consumeRows(data); err != nil {
		return err
	}
	var n uint64
	if n, data, err = consumeCount(data, 12); err != nil { // three length prefixes
		return err
	}
	if n > 0 {
		m.Relations = make([]wireRelation, n)
		for i := range m.Relations {
			rel := &m.Relations[i]
			if rel.From, data, err = wire.ConsumeString(data); err != nil {
				return err
			}
			if rel.Kind, data, err = wire.ConsumeString(data); err != nil {
				return err
			}
			if rel.To, data, err = wire.ConsumeString(data); err != nil {
				return err
			}
		}
	}
	return closeBody(data)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *pushResp) UnmarshalBinary(data []byte) error {
	data, err := openBody(data, tagPushResp, "pushResp")
	if err != nil {
		return err
	}
	*m = pushResp{}
	if m.Applied, data, err = consumeInt(data); err != nil {
		return err
	}
	if m.Conflicts, data, err = consumeInt(data); err != nil {
		return err
	}
	var n uint64
	if n, data, err = consumeCount(data, 4); err != nil {
		return err
	}
	if n > 0 {
		m.Refused = make([]string, n)
		for i := range m.Refused {
			if m.Refused[i], data, err = wire.ConsumeString(data); err != nil {
				return err
			}
		}
	}
	return closeBody(data)
}

// openBody checks the tag and returns what follows it.
func openBody(data []byte, tag byte, name string) ([]byte, error) {
	if len(data) == 0 || data[0] != tag {
		return nil, fmt.Errorf("%w: not a %s", errBadBody, name)
	}
	return data[1:], nil
}

// openDigestBody is openBody for the two messages that carry a flags
// byte; a flag outside allowed is an error.
func openDigestBody(data []byte, tag byte, name string, allowed byte) (rest []byte, flags byte, err error) {
	if data, err = openBody(data, tag, name); err != nil {
		return nil, 0, err
	}
	if len(data) == 0 {
		return nil, 0, wire.ErrTruncated
	}
	if data[0]&^allowed != 0 {
		return nil, 0, fmt.Errorf("%w: %s flags %#x", errBadBody, name, data[0])
	}
	return data[1:], data[0], nil
}

// closeBody rejects bytes after the last section.
func closeBody(rest []byte) error {
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errBadBody, len(rest))
	}
	return nil
}

// consumeCount reads an element count and checks it against the bytes
// that remain — each element takes at least minSize — so a corrupt count
// is an error before it is an allocation.
func consumeCount(data []byte, minSize int) (uint64, []byte, error) {
	n, data, err := wire.ConsumeUint64(data)
	if err != nil {
		return 0, data, err
	}
	if n > uint64(len(data)/minSize) {
		return 0, data, fmt.Errorf("%w: count %d in %d bytes", errBadBody, n, len(data))
	}
	return n, data, nil
}

// consumeInt reads an int (a row count) carried as the uint64 of its two's
// complement.
func consumeInt(data []byte) (int, []byte, error) {
	v, data, err := wire.ConsumeUint64(data)
	if err != nil {
		return 0, data, err
	}
	if int64(int(v)) != int64(v) {
		return 0, data, fmt.Errorf("%w: integer %d out of range", errBadBody, int64(v))
	}
	return int(v), data, nil
}

// consumeSections reads the optional tree-frame and high-water sections
// the flags announce. The frame section is returned still encoded (what
// wire.DecodeTreeFrames takes), aliasing data.
func consumeSections(data []byte, flags byte) (frames []byte, hw map[string]uint64, rest []byte, err error) {
	if flags&flagFrames != 0 {
		n, _, err := consumeCount(data, 16)
		if err != nil {
			return nil, nil, data, err
		}
		size := 8 + int(n)*16 // the count and the frames, as DecodeTreeFrames takes them
		frames, data = data[:size:size], data[size:]
	}
	if flags&flagHW != 0 {
		var n uint64
		if n, data, err = consumeCount(data, 12); err != nil {
			return nil, nil, data, err
		}
		hw = make(map[string]uint64, n)
		for i := uint64(0); i < n; i++ {
			var site string
			if site, data, err = wire.ConsumeString(data); err != nil {
				return nil, nil, data, err
			}
			if hw[site], data, err = wire.ConsumeUint64(data); err != nil {
				return nil, nil, data, err
			}
		}
	}
	return frames, hw, data, nil
}

// consumeDigest reads a digest written by appendDigest; an empty digest
// decodes as nil.
func consumeDigest(data []byte) (map[string]vclock.Version, []byte, error) {
	n, data, err := consumeCount(data, 12) // id prefix + vector count
	if err != nil || n == 0 {
		return nil, data, err
	}
	d := make(map[string]vclock.Version, n)
	for i := uint64(0); i < n; i++ {
		var id string
		if id, data, err = wire.ConsumeString(data); err != nil {
			return nil, data, err
		}
		if d[id], data, err = vclock.DecodeVersion(data); err != nil {
			return nil, data, err
		}
	}
	return d, data, nil
}

// minRowBytes is the least a row can take: four string prefixes, the
// version, a vector count, two timestamps and a field count.
const minRowBytes = 4*4 + 8 + 8 + 16 + 8

// consumeRows reads a row list written by appendRows; no rows decode as
// nil.
func consumeRows(data []byte) ([]*information.Object, []byte, error) {
	n, data, err := consumeCount(data, minRowBytes)
	if err != nil || n == 0 {
		return nil, data, err
	}
	rows := make([]*information.Object, n)
	for i := range rows {
		if rows[i], data, err = information.DecodeObject(data); err != nil {
			return nil, data, err
		}
	}
	return rows, data, nil
}
