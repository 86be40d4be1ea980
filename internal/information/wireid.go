package information

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"mocca/internal/wire"
)

// idKind is the kind Space.Put mints row ids under (id.Generator.Next):
// "info-<seq>-<entropy>". The wire form says such an id by its parts.
const idKind = "info"

// mintPrefix opens every id a Space mints.
const mintPrefix = idKind + "-"

// AppendWireID appends id in the form the bodies that carry rows say ids
// in. Its length's uvarint takes a marker:
//
//	0      the compact form: the sequence as a uvarint, then the entropy
//	       in 4 big-endian bytes
//	n ≥ 1  the id spelled, in its n − 1 bytes
//
// An id takes the compact form exactly when it is one a Space mints:
// "info-", a decimal sequence in [1, 2⁶⁴) with no leading zero, "-", and
// eight lower-case hex digits. Any other id is spelled. The form is the
// wire's alone: a store reads each row's id where it lies, so disk keeps
// AppendObject's spelled ids.
func AppendWireID(dst []byte, id string) []byte {
	if seq, entropy, ok := mintedParts(id); ok {
		return binary.BigEndian.AppendUint32(wire.AppendUvarint(append(dst, 0), seq), entropy)
	}
	return append(wire.AppendUvarint(dst, uint64(len(id))+1), id...)
}

// WireIDLen is the length of id in AppendWireID's form.
func WireIDLen(id string) int {
	if seq, _, ok := mintedParts(id); ok {
		return 1 + wire.UvarintLen(seq) + 4
	}
	return wire.UvarintLen(uint64(len(id))+1) + len(id)
}

// ConsumeWireID reads an id AppendWireID wrote, returning it and the bytes
// after it. It refuses what AppendWireID never writes, so an id has one
// encoding: a compact sequence of 0, and a spelled id the compact form
// says.
func ConsumeWireID(data []byte) (string, []byte, error) {
	w, rest, err := scanWireID(data)
	if err != nil {
		return "", data, err
	}
	return w.String(), rest, nil
}

// AppendWireIDs appends an id list in the wire form: a uvarint count, then
// each id in AppendWireID's. ConsumeWireIDs reads it back.
func AppendWireIDs(dst []byte, ids []string) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = AppendWireID(dst, id)
	}
	return dst
}

// ConsumeWireIDs reads an id list written by AppendWireIDs at the cursor,
// holding the count against the bytes that remain before it allocates; no
// ids read as nil.
func ConsumeWireIDs(b *wire.Body) []string {
	n := b.Count(1) // an id is a byte at least
	if n == 0 {
		return nil
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = wire.Consume(b, ConsumeWireID)
	}
	return ids
}

// wireID is an id scanWireID found: spelled, a sub-slice of the input, or
// minted, by its parts.
type wireID struct {
	spelled []byte
	seq     uint64 // 0 for a spelled id
	entropy uint32
}

// String is the id: a copy of a spelled one, or a minted one rebuilt on
// the stack — one allocation either way.
func (w wireID) String() string {
	if w.seq == 0 {
		return string(w.spelled)
	}
	var room [len(mintPrefix) + 20 + 1 + 8]byte
	b := strconv.AppendUint(append(room[:0], mintPrefix...), w.seq, 10)
	b = append(b, '-')
	const hex = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, hex[w.entropy>>shift&0xf])
	}
	return string(b)
}

// scanWireID walks an id in AppendWireID's form, allocating nothing.
func scanWireID(data []byte) (w wireID, rest []byte, err error) {
	marker, rest, err := wire.ConsumeUvarint(data)
	switch {
	case err != nil:
		return w, data, err
	case marker == 0:
		if w.seq, rest, err = wire.ConsumeUvarint(rest); err != nil {
			return w, data, err
		}
		if w.seq == 0 {
			return w, data, fmt.Errorf("%w: a compact id of sequence 0", wire.ErrBadBody)
		}
		if len(rest) < 4 {
			return w, data, fmt.Errorf("%w: an id's entropy in %d bytes", wire.ErrTruncated, len(rest))
		}
		w.entropy = binary.BigEndian.Uint32(rest)
		return w, rest[4:], nil
	case marker-1 >= wire.MaxStringLen:
		return w, data, fmt.Errorf("%w: %d-byte id", wire.ErrOversize, marker-1)
	case marker-1 > uint64(len(rest)):
		return w, data, fmt.Errorf("%w: %d-byte id in %d bytes", wire.ErrTruncated, marker-1, len(rest))
	}
	w.spelled, rest = rest[:marker-1:marker-1], rest[marker-1:]
	if _, _, minted := mintedParts(w.spelled); minted {
		return wireID{}, data, fmt.Errorf("%w: id %q spelled where its parts say it", wire.ErrBadBody, w.spelled)
	}
	return w, rest, nil
}

// mintedParts splits an id a Space mints into its sequence and entropy;
// ok is false for any other id. It reads the id where it lies, so a
// scanned one is checked without a copy.
func mintedParts[T string | []byte](id T) (seq uint64, entropy uint32, ok bool) {
	const tail = 1 + 8 // "-" and the entropy
	digits := len(id) - len(mintPrefix) - tail
	if digits < 1 || string(id[:len(mintPrefix)]) != mintPrefix || id[len(id)-tail] != '-' || id[len(mintPrefix)] == '0' {
		return 0, 0, false
	}
	for _, c := range []byte(id[len(mintPrefix) : len(id)-tail]) {
		d := uint64(c - '0')
		if d > 9 || seq > (math.MaxUint64-d)/10 {
			return 0, 0, false
		}
		seq = seq*10 + d
	}
	for _, c := range []byte(id[len(id)-8:]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		default:
			return 0, 0, false
		}
		entropy = entropy<<4 | uint32(c)
	}
	return seq, entropy, true
}
