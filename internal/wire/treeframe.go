package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// TreeFrame is one node of a Merkle digest tree on the wire: the node's
// packed position plus its hash. The anti-entropy digest negotiation
// (internal/replica) ships lists of these frames instead of full
// id→version-vector digests — a converged round is one root frame, a
// divergent round descends mismatched subtrees frame by frame.
type TreeFrame struct {
	Path uint64 // PackTreePath(level, index)
	Hash uint64
}

// PackTreePath packs a tree position (level from the root, index within
// the level) into one uint64 path word.
func PackTreePath(level, index uint32) uint64 {
	return uint64(level)<<32 | uint64(index)
}

// TreePathParts unpacks a path word produced by PackTreePath.
func TreePathParts(path uint64) (level, index uint32) {
	return uint32(path >> 32), uint32(path & 0xFFFFFFFF)
}

// ErrBadTreeFrames reports a malformed tree-frame encoding.
var ErrBadTreeFrames = errors.New("wire: bad tree frame encoding")

// treeFrameSize is the encoded size of one frame: path + hash.
const treeFrameSize = 16

// AppendTreeFrames appends a deterministic binary encoding of the frames
// to dst: a uvarint frame count, then per frame the packed path and the
// hash, each a big-endian uint64. The encoding is what digest requests
// carry (and what the digest-byte counters measure), so its size — the
// count's uvarint and 16·frames — is the true wire cost of a negotiation
// step.
func AppendTreeFrames(dst []byte, frames []TreeFrame) []byte {
	dst = slices.Grow(dst, UvarintLen(uint64(len(frames)))+treeFrameSize*len(frames))
	dst = AppendUvarint(dst, uint64(len(frames)))
	for _, f := range frames {
		dst = binary.BigEndian.AppendUint64(dst, f.Path)
		dst = binary.BigEndian.AppendUint64(dst, f.Hash)
	}
	return dst
}

// DecodeTreeFrames decodes a frame list produced by AppendTreeFrames.
func DecodeTreeFrames(data []byte) ([]TreeFrame, error) {
	n, rest, err := ConsumeUvarint(data)
	if err == nil && len(data)-len(rest) != UvarintLen(n) {
		err = fmt.Errorf("count %d in %d bytes", n, len(data)-len(rest)) // one encoding per list
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTreeFrames, err)
	}
	// Divide instead of multiplying: a hostile count like 2^60 would
	// overflow n*treeFrameSize to a small value, slip past an equality
	// check, and panic the frames allocation below.
	if uint64(len(rest))%treeFrameSize != 0 || uint64(len(rest))/treeFrameSize != n {
		return nil, fmt.Errorf("%w: %d frames in %d bytes", ErrBadTreeFrames, n, len(rest))
	}
	frames := make([]TreeFrame, n)
	for i := range frames {
		frames[i] = TreeFrame{Path: binary.BigEndian.Uint64(rest), Hash: binary.BigEndian.Uint64(rest[8:])}
		rest = rest[treeFrameSize:]
	}
	return frames, nil
}
