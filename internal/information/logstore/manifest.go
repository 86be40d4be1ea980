package logstore

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"mocca/internal/wire"
)

// The manifest is the store's incremental snapshot: instead of rewriting
// every row (the pre-tiered design), it records WHERE the rows are — the
// live segment list — plus the small state that never leaves memory. It
// keeps the historical snapshot.snap name and the same atomic discipline
// (stream to snapshot.tmp, fsync, rename), so a crash at any point leaves
// either the old manifest or the new one, never a torn in-between.
//
// Layout (CRC-framed records):
//
//	header:     recSnapHeader, carrying the covered WAL sequence, the live
//	            row count at that sequence, the next segment id, the
//	            segment count and a relation count, always 0
//	segments:   one recManSeg per live segment (id, level, file name)
//
// The relation count is what is left of the relationship edges a manifest
// once listed after its segments; a non-zero count is refused with
// ErrRetiredRecord. Recovery cost is O(segments + WAL tail): segment rows
// are never read, only each segment's footer and meta region.

// manifest is the decoded on-disk state.
type manifest struct {
	coveredSeq uint64 // WAL records with seq <= this are in the segments
	liveRows   int    // live row count at coveredSeq
	nextSegID  uint64
	segs       []manifestSeg
}

type manifestSeg struct {
	id    uint64
	level int
	file  string
}

// loadManifest reads the manifest, or returns nil when none exists yet.
// A manifest that fails its checksums is a hard error: the WAL was
// truncated when it was written, so nothing can reconstruct the covered
// prefix.
func loadManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	payload, rest, err := wire.NextRecord(data)
	if err != nil {
		return nil, fmt.Errorf("manifest header: %w", err)
	}
	if len(payload) < 1 || payload[0] != recSnapHeader {
		return nil, fmt.Errorf("manifest header: %w", ErrCorrupt)
	}
	m := &manifest{}
	var live, nSegs, nRels uint64
	p := payload[1:]
	if m.coveredSeq, p, err = consumeUint64(p); err != nil {
		return nil, fmt.Errorf("manifest header: %w", err)
	}
	if live, p, err = consumeUint64(p); err != nil {
		return nil, fmt.Errorf("manifest header: %w", err)
	}
	if m.nextSegID, p, err = consumeUint64(p); err != nil {
		return nil, fmt.Errorf("manifest header: %w", err)
	}
	if nSegs, p, err = consumeUint64(p); err != nil {
		return nil, fmt.Errorf("manifest header: %w", err)
	}
	if nRels, _, err = consumeUint64(p); err != nil {
		return nil, fmt.Errorf("manifest header: %w", err)
	}
	if nRels != 0 {
		return nil, fmt.Errorf("manifest header: %d relations: %w", nRels, ErrRetiredRecord)
	}
	m.liveRows = int(live)
	for i := uint64(0); i < nSegs; i++ {
		if payload, rest, err = wire.NextRecord(rest); err != nil {
			return nil, fmt.Errorf("manifest segment %d: %w", i, err)
		}
		if len(payload) < 1 || payload[0] != recManSeg {
			return nil, fmt.Errorf("manifest segment %d: %w", i, ErrCorrupt)
		}
		var ms manifestSeg
		var level uint64
		p := payload[1:]
		if ms.id, p, err = consumeUint64(p); err != nil {
			return nil, fmt.Errorf("manifest segment %d: %w", i, err)
		}
		if level, p, err = consumeUint64(p); err != nil {
			return nil, fmt.Errorf("manifest segment %d: %w", i, err)
		}
		if ms.file, _, err = consumeString32(p); err != nil {
			return nil, fmt.Errorf("manifest segment %d: %w", i, err)
		}
		ms.level = int(level)
		m.segs = append(m.segs, ms)
	}
	return m, nil
}

// loadManifestState loads the manifest and opens every segment it
// references (footer + metadata only). Segment files the manifest does
// not reference are orphans of a crashed flush or merge and are removed.
func (s *Store) loadManifestState() error {
	m, err := loadManifest(s.dir)
	if err != nil {
		return fmt.Errorf("logstore: %w", err)
	}
	known := map[string]bool{}
	if m != nil {
		s.seq, s.snapSeq = m.coveredSeq, m.coveredSeq
		s.liveCovered = m.liveRows
		if m.nextSegID > 0 {
			s.nextSegID = m.nextSegID
		}
		for _, ms := range m.segs {
			known[ms.file] = true
			seg, err := openSegment(filepath.Join(s.dir, ms.file), ms.id, ms.level)
			if err != nil {
				return fmt.Errorf("logstore: %w", err)
			}
			s.segs = append(s.segs, seg)
		}
		sort.Slice(s.segs, func(i, j int) bool { return s.segs[i].seqHi > s.segs[j].seqHi })
	}
	orphans, err := filepath.Glob(filepath.Join(s.dir, "seg-*.seg"))
	if err != nil {
		return fmt.Errorf("logstore: %w", err)
	}
	for _, path := range orphans {
		if !known[filepath.Base(path)] {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("logstore: %w", err)
			}
		}
	}
	return nil
}

// writeManifestLocked streams the current manifest (segment list segs,
// covered sequence s.snapSeq, live count s.liveCovered) through
// snapshot.tmp and renames it into place. Caller holds s.mu, which
// serialises manifest writers (flush and compaction install).
func (s *Store) writeManifestLocked(segs []*segment) error {
	tmp := filepath.Join(s.dir, snapTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)

	s.payload = append(s.payload[:0], recSnapHeader)
	s.payload = appendUint64(s.payload, s.snapSeq)
	s.payload = appendUint64(s.payload, uint64(s.liveCovered))
	s.payload = appendUint64(s.payload, s.nextSegID)
	s.payload = appendUint64(s.payload, uint64(len(segs)))
	s.payload = appendUint64(s.payload, 0) // relations: retired
	werr := s.writeFrame(w)
	for _, seg := range segs {
		if werr != nil {
			break
		}
		s.payload = append(s.payload[:0], recManSeg)
		s.payload = appendUint64(s.payload, seg.id)
		s.payload = appendUint64(s.payload, uint64(seg.level))
		s.payload = appendString32(s.payload, filepath.Base(seg.path))
		werr = s.writeFrame(w)
	}
	if werr == nil {
		werr = w.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if werr != nil {
		//lint:allow errdrop the write already failed and werr carries the real error; close is cleanup of a temp file that rename never published
		f.Close()
		return werr
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(s.dir, snapName))
}
