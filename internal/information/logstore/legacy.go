package logstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mocca/internal/information"
	"mocca/internal/wire"
)

// This file reads what a store an earlier build wrote may hold beside rows
// in the current format, and only Open calls it. Such a store may hold
//
//   - segments in an older format: rows in format 1 (recSegMetaV1,
//     format1.go) or format 2 (recSegMetaV2, format2.go), or in the
//     current codec under recSegMetaV3, the header of the builds that could
//     remove a row (format 3);
//   - tombstones in those segments (recSegTomb): a removed row's id alone,
//     in the string form of its segment's format, masking the row's older
//     versions;
//   - removals in the WAL (recRemove): a row's id.
//
// Open folds all of it away before anything else reads the store. It
// merges the WAL's tail and every segment, newest first, into one segment
// in the current format — a removal or tombstone drops its id and every
// older version it masks — installs that segment with one manifest swap
// covering the whole WAL, and truncates the WAL. A crash before the swap
// leaves the old store whole and the new segment an orphan the next Open
// removes; a crash after it leaves covered records in the WAL, and a
// removal among them makes the next Open fold again. Past Open, no write,
// read, flush or merge meets a removal: the memtable holds rows, and a
// current segment holds rows, its reader refusing anything else as
// corrupt.

// decodeRemoval decodes the one WAL record type decodeWALRecord leaves to
// this file, a removal; any other type is corrupt.
func decodeRemoval(rec walRecord, payload []byte) (walRecord, error) {
	if rec.typ != recRemove {
		return rec, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, rec.typ)
	}
	var err error
	if rec.id, _, err = consumeString32(payload); err != nil {
		return rec, fmt.Errorf("%w: remove: %v", ErrCorrupt, err)
	}
	return rec, nil
}

// mustFold reports whether Open folds the store: it holds a segment an
// earlier build wrote, or a removal anywhere in its WAL.
func (s *Store) mustFold(tail walTail) bool {
	for _, g := range s.segs {
		if g.format != 0 {
			return true
		}
	}
	for _, rec := range tail.recs {
		if rec.typ == recRemove {
			return true
		}
	}
	return false
}

// fold rewrites the store as one segment in the current format, WAL tail
// included, and empties the WAL (see the top of this file). Its stats read
// as a replay's: the tail's records replayed or skipped, the torn suffix
// discarded, and every segment it replaced upgraded.
func (s *Store) fold(tail walTail) error {
	// The tail applied over nothing: per id the row its last record
	// logged, or nil where that record removed the row.
	last := map[string]*information.Object{}
	for _, rec := range tail.recs {
		s.seq = max(s.seq, rec.seq)
		if rec.seq <= s.snapSeq {
			s.stats.SkippedRecords++
			continue
		}
		if rec.obj != nil {
			last[rec.obj.ID] = rec.obj
		} else {
			last[rec.id] = nil
		}
		s.stats.ReplayedRecords++
	}
	logged := make([]flushEntry, 0, len(last))
	for id, obj := range last {
		logged = append(logged, flushEntry{id: id, obj: obj})
	}
	sort.Slice(logged, func(i, j int) bool { return logged[i].id < logged[j].id })
	srcs := []*mergeCursor{{next: func() (flushEntry, bool, error) {
		if len(logged) == 0 {
			return flushEntry{}, false, nil
		}
		e := logged[0]
		logged = logged[1:]
		return e, true, nil
	}}}
	level, seqLo, expect := 0, s.snapSeq+1, len(last)
	for _, g := range s.segs { // newest first
		srcs = append(srcs, &mergeCursor{next: g.foldEntries()})
		level = max(level, g.level+1)
		seqLo = min(seqLo, g.seqLo)
		expect += g.count
	}

	id := s.nextSegID
	s.nextSegID++
	w, err := newSegWriter(filepath.Join(s.dir, segName(id)), id, level, seqLo, s.seq, expect)
	if err != nil {
		return fmt.Errorf("logstore: fold: %w", err)
	}
	live := 0
	err = merge(srcs, func(e *flushEntry) (bool, error) {
		if e.obj == nil && e.rec == nil { // removed, with every older version
			return true, nil
		}
		live++
		return true, w.add(*e)
	})
	if err != nil {
		w.abort()
		return fmt.Errorf("logstore: fold: %w", err)
	}
	out, err := w.finish()
	if err != nil {
		return fmt.Errorf("logstore: fold: %w", err)
	}
	discard := func() {
		out.closeFile()
		//lint:allow errdrop best-effort cleanup of a fold output no manifest references; a leftover file is an orphan the next Open removes
		os.Remove(out.path)
	}
	var segs []*segment
	if live > 0 {
		segs = []*segment{out}
	}
	// Its rows may now name schemas by id that no row of the store named
	// before.
	if err := s.defineLocked(out.schemas...); err != nil {
		discard()
		return fmt.Errorf("logstore: fold: %w", err)
	}
	s.snapSeq, s.liveCovered = s.seq, live
	if err := s.writeManifestLocked(segs); err != nil {
		discard()
		return fmt.Errorf("logstore: fold: %w", err)
	}
	if live == 0 {
		discard()
	}
	if tail.size > 0 {
		if err := os.Truncate(filepath.Join(s.dir, walName), 0); err != nil {
			return fmt.Errorf("logstore: fold: %w", err)
		}
	}
	s.stats.DiscardedBytes = int64(tail.size - tail.good)
	s.stats.UpgradedSegments += len(s.segs)
	for _, g := range s.segs {
		g.drop()
	}
	s.segs = segs
	s.live.Store(int64(live))
	return nil
}

// foldEntries is the fold's cursor over g's data region: a row as the
// steady-state iterator reads it (a raw record) where it is in the current
// codec, decoded by its format's reader where it is not, and a tombstone
// as its id alone.
func (g *segment) foldEntries() func() (flushEntry, bool, error) {
	it := g.iter()
	if g.format == 0 {
		return it.next
	}
	decode, str := decodeObjectV2, wire.ConsumeString
	if g.format == 1 {
		decode, str = decodeObjectV1, consumeString32
	}
	return func() (flushEntry, bool, error) {
		payload, ok, err := it.record()
		if !ok || err != nil {
			return flushEntry{}, false, err
		}
		var e flushEntry
		switch {
		case payload[0] == recSegTomb:
			if e.id, _, err = str(payload[1:]); err != nil {
				err = fmt.Errorf("%w: format-%d tombstone: %v", ErrCorrupt, g.format, err)
			}
		case g.format == 3:
			e, err = rowEntry(payload)
		case payload[0] == recSegRow:
			if e.obj, _, err = decode(payload[1:]); err != nil {
				err = fmt.Errorf("%w: format-%d row: %v", ErrCorrupt, g.format, err)
			} else {
				e.id = e.obj.ID
			}
		default:
			err = ErrCorrupt
		}
		return e, err == nil, err
	}
}
