package gossip

import (
	"errors"
	"fmt"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// The rumor plane's four messages (gossip.rumor, gossip.fetch) travel as
// hand-written binary bodies, like the anti-entropy protocol's: a tag byte
// naming the message, then wire's shared primitives — uint32
// length-prefixed strings, big-endian uint64 counts and integers — with
// version vectors in vclock's canonical form and rows in the one row
// codec (information.AppendObject). wire.EncodeBody picks a message's own
// AppendBinary over JSON, so the membership messages are untouched.
//
// A rumor entry's vector stays the bytes it arrived as (vclock.ScanVersion
// has walked them, so vclock.DecodeVersion reads them): the dedup key is
// taken over those bytes, a duplicate is dropped without a decode, and a
// forward appends them verbatim. Every sender here writes the canonical
// form, where equal vectors are equal bytes; a peer that sends a vector in
// some other order is keyed apart from its canonical twin, which costs at
// most one extra forward per TTL hop and never a wrong answer — rows still
// travel through the replica's apply. A decoded rumorReq aliases the body it
// was read from, as wire.Unmarshal's envelope aliases its frame: the entries
// a handler keeps while it fetches hold that one frame until the fetch ends.
//
// The tags have the high bit set: no JSON text starts with such a byte, so
// a JSON decoder handed a binary body — or a binary decoder handed JSON —
// fails on the first byte instead of misreading the rest.
const (
	tagRumorReq  byte = 0x91
	tagRumorResp byte = 0x92
	tagFetchReq  byte = 0x93
	tagFetchResp byte = 0x94
)

// errBadBody reports a body that is not the expected message: wrong tag,
// a count the remaining bytes cannot hold, or bytes left over.
var errBadBody = errors.New("gossip: bad message body")

// AppendBinary implements encoding.BinaryAppender.
func (m rumorReq) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagRumorReq)
	b = wire.AppendString(b, m.From.Site)
	b = wire.AppendString(b, string(m.From.Addr))
	b = wire.AppendString(b, string(m.From.Repl))
	b = wire.AppendUint64(b, uint64(m.TTL))
	b = wire.AppendUint64(b, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		b = wire.AppendString(b, e.ID)
		b = append(b, e.VV...)
	}
	return b, nil
}

// size is the length of the body AppendBinary writes, for a sender that
// builds it in a buffer of its own.
func (m rumorReq) size() int {
	n := 1 + 3*4 + 2*8 + len(m.From.Site) + len(m.From.Addr) + len(m.From.Repl)
	for _, e := range m.Entries {
		n += 4 + len(e.ID) + len(e.VV)
	}
	return n
}

// AppendBinary implements encoding.BinaryAppender.
func (m rumorResp) AppendBinary(b []byte) ([]byte, error) {
	return wire.AppendUint64(append(b, tagRumorResp), uint64(m.Want)), nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m fetchReq) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagFetchReq)
	b = wire.AppendString(b, m.Site)
	b = wire.AppendUint64(b, uint64(len(m.IDs)))
	for _, id := range m.IDs {
		b = wire.AppendString(b, id)
	}
	return b, nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m fetchResp) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, tagFetchResp)
	b = wire.AppendUint64(b, uint64(len(m.Objects)))
	for _, o := range m.Objects {
		b = information.AppendObject(b, o)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *rumorReq) UnmarshalBinary(data []byte) error {
	data, err := openBody(data, tagRumorReq, "rumorReq")
	if err != nil {
		return err
	}
	*m = rumorReq{}
	var addr, repl string
	if m.From.Site, data, err = wire.ConsumeString(data); err != nil {
		return err
	}
	if addr, data, err = wire.ConsumeString(data); err != nil {
		return err
	}
	if repl, data, err = wire.ConsumeString(data); err != nil {
		return err
	}
	m.From.Addr, m.From.Repl = netsim.Address(addr), netsim.Address(repl)
	if m.TTL, data, err = consumeInt(data); err != nil {
		return err
	}
	var n uint64
	if n, data, err = consumeCount(data, 12); err != nil { // id prefix + vector count
		return err
	}
	if n > 0 {
		m.Entries = make([]rumorEntry, n)
		for i := range m.Entries {
			e := &m.Entries[i]
			if e.ID, data, err = wire.ConsumeString(data); err != nil {
				return err
			}
			if e.VV, data, err = vclock.ScanVersion(data); err != nil {
				return err
			}
		}
	}
	return closeBody(data)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *rumorResp) UnmarshalBinary(data []byte) error {
	data, err := openBody(data, tagRumorResp, "rumorResp")
	if err != nil {
		return err
	}
	*m = rumorResp{}
	if m.Want, data, err = consumeInt(data); err != nil {
		return err
	}
	return closeBody(data)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *fetchReq) UnmarshalBinary(data []byte) error {
	data, err := openBody(data, tagFetchReq, "fetchReq")
	if err != nil {
		return err
	}
	*m = fetchReq{}
	if m.Site, data, err = wire.ConsumeString(data); err != nil {
		return err
	}
	var n uint64
	if n, data, err = consumeCount(data, 4); err != nil {
		return err
	}
	if n > 0 {
		m.IDs = make([]string, n)
		for i := range m.IDs {
			if m.IDs[i], data, err = wire.ConsumeString(data); err != nil {
				return err
			}
		}
	}
	return closeBody(data)
}

// minRowBytes is the least a row can take: four string prefixes, the
// version, a vector count, two timestamps and a field count.
const minRowBytes = 4*4 + 8 + 8 + 16 + 8

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *fetchResp) UnmarshalBinary(data []byte) error {
	data, err := openBody(data, tagFetchResp, "fetchResp")
	if err != nil {
		return err
	}
	*m = fetchResp{}
	var n uint64
	if n, data, err = consumeCount(data, minRowBytes); err != nil {
		return err
	}
	if n > 0 {
		m.Objects = make([]*information.Object, n)
		for i := range m.Objects {
			if m.Objects[i], data, err = information.DecodeObject(data); err != nil {
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

// consumeInt reads an int (a TTL, a row count) carried as the uint64 of
// its two's complement.
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
