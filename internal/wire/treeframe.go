package wire

import (
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
// to dst: a uint64 frame count, then per frame the packed path and the
// hash, in the shared codec layout. The encoding is what digest requests
// carry (and what the digest-byte counters measure), so its size — 8 +
// 16·frames — is the true wire cost of a negotiation step.
func AppendTreeFrames(dst []byte, frames []TreeFrame) []byte {
	dst = slices.Grow(dst, 8+treeFrameSize*len(frames))
	dst = AppendUint64(dst, uint64(len(frames)))
	for _, f := range frames {
		dst = AppendUint64(dst, f.Path)
		dst = AppendUint64(dst, f.Hash)
	}
	return dst
}

// DecodeTreeFrames decodes a frame list produced by AppendTreeFrames.
func DecodeTreeFrames(data []byte) ([]TreeFrame, error) {
	n, rest, err := ConsumeUint64(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTreeFrames, err)
	}
	// Divide instead of multiplying: a hostile count like 2^60 would
	// overflow n*treeFrameSize to a small value, slip past an equality
	// check, and panic the frames allocation below.
	if uint64(len(rest))%treeFrameSize != 0 || uint64(len(rest))/treeFrameSize != n {
		return nil, fmt.Errorf("%w: %d frames in %d bytes", ErrBadTreeFrames, n, len(rest))
	}
	frames := make([]TreeFrame, 0, n)
	for i := uint64(0); i < n; i++ {
		var f TreeFrame
		if f.Path, rest, err = ConsumeUint64(rest); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTreeFrames, err)
		}
		if f.Hash, rest, err = ConsumeUint64(rest); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTreeFrames, err)
		}
		frames = append(frames, f)
	}
	return frames, nil
}
