package replica

import (
	"encoding/binary"
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
// in. A request's tree frames are in wire.AppendTreeFrames' layout; a
// reply's children section is a count, then per mismatched internal node
// its packed path and its MerkleFanout child hashes (the children's paths
// follow from it). High-water maps, digests and want-lists are in exactly
// the layout hwBytes, digestMapBytes and wantBytes measure, so
// Stats.DigestBytes is the encoded size of those sections.
//
// The tags have the high bit set: no JSON text starts with such a byte, so
// a JSON decoder handed a binary body — or a binary decoder handed JSON —
// fails on the first byte instead of misreading the rest. 0x82 and 0x84,
// the replies with full child paths and a mirrored digest, are retired.
const (
	tagDigestReq  byte = 0x81
	tagSyncReq    byte = 0x83
	tagPushReq    byte = 0x85
	tagPushResp   byte = 0x86
	tagDigestResp byte = 0x87
	tagSyncResp   byte = 0x88
)

// childRecordSize is one record of a children section: the parent's
// packed path, then its child hashes.
const childRecordSize = 8 + 8*information.MerkleFanout

// Presence flags of the optional sections of a digest message.
const (
	flagMatch  byte = 1 << iota // digestResp.Match
	flagFrames                  // a tree-frame section follows
	flagHW                      // a high-water section follows (possibly empty)
)

// --- encoders --------------------------------------------------------------

// AppendBinary implements encoding.BinaryAppender.
func (m digestReq) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagDigestReq, sectionFlags(false, m.Frames, m.HW))
	b = wire.AppendString(b, m.Site)
	return appendSections(b, m.Frames, m.HW), nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m digestResp) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagDigestResp, sectionFlags(m.Match, m.Children, m.HW))
	b = wire.AppendString(b, m.Site)
	b = appendSections(b, m.Children, m.HW)
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
	b = appendStrings(b, m.Want)
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
	return appendStrings(b, m.Refused), nil
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

// appendSections writes the optional tree-frame (or children) and
// high-water sections sectionFlags announced; consumeSections reads them
// back.
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

// appendStrings writes an id list: count, then each id in the order
// given — wantBytes(ids) bytes.
func appendStrings(b []byte, ids []string) []byte {
	b = wire.AppendUint64(b, uint64(len(ids)))
	for _, id := range ids {
		b = wire.AppendString(b, id)
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
//
// Each reads its body through a wire.Body cursor: the tag, one line per
// field, and Close for the first failure or trailing bytes.

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Frames aliases
// data, like an envelope's body does.
func (m *digestReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagDigestReq, "digestReq")
	flags := b.Flags(flagFrames | flagHW)
	*m = digestReq{Site: b.String()}
	m.Frames, m.HW = consumeSections(&b, flags, 16)
	return b.Close()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Children aliases
// data, like an envelope's body does.
func (m *digestResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagDigestResp, "digestResp")
	flags := b.Flags(flagMatch | flagFrames | flagHW)
	*m = digestResp{Match: flags&flagMatch != 0, Site: b.String()}
	m.Children, m.HW = consumeSections(&b, flags, childRecordSize)
	m.Deltas = information.ConsumeObjects(&b)
	return b.Close()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *syncReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagSyncReq, "syncReq")
	*m = syncReq{Site: b.String(), Digest: consumeDigest(&b)}
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
	*m = syncResp{Site: b.String(), Want: consumeStrings(&b), Deltas: information.ConsumeObjects(&b)}
	return b.Close()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *pushReq) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagPushReq, "pushReq")
	*m = pushReq{Site: b.String(), Objects: information.ConsumeObjects(&b)}
	if n := b.Count(12); n > 0 { // three length prefixes
		m.Relations = make([]wireRelation, n)
		for i := range m.Relations {
			m.Relations[i] = wireRelation{From: b.String(), Kind: b.String(), To: b.String()}
		}
	}
	return b.Close()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *pushResp) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagPushResp, "pushResp")
	*m = pushResp{Applied: b.Int(), Conflicts: b.Int(), Refused: consumeStrings(&b)}
	return b.Close()
}

// consumeSections reads the optional frame and high-water sections the
// flags announce. The frame section — a count, then that many records of
// recordSize bytes: tree frames or children records — is returned still
// encoded, aliasing data.
func consumeSections(b *wire.Body, flags byte, recordSize int) (frames []byte, hw map[string]uint64) {
	if flags&flagFrames != 0 {
		section := *b // where the section starts
		n := b.Count(recordSize)
		b.Raw(recordSize * n)
		frames = section.Raw(8 + recordSize*n)
	}
	if flags&flagHW != 0 {
		n := b.Count(12)
		hw = make(map[string]uint64, n)
		for range n {
			site := b.String()
			hw[site] = b.Uint64()
		}
	}
	return frames, hw
}

// consumeStrings reads an id list written by appendStrings; an empty
// list decodes as nil.
func consumeStrings(b *wire.Body) []string {
	n := b.Count(4)
	if n == 0 {
		return nil
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = b.String()
	}
	return ids
}

// consumeDigest reads a digest written by appendDigest; an empty digest
// decodes as nil.
func consumeDigest(b *wire.Body) map[string]vclock.Version {
	n := b.Count(12) // id prefix + vector count
	if n == 0 {
		return nil
	}
	d := make(map[string]vclock.Version, n)
	for range n {
		id := b.String()
		d[id] = wire.Consume(b, vclock.DecodeVersion)
	}
	return d
}
