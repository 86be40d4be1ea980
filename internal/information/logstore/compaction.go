package logstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mocca/internal/information"
)

// This file is the tiering machinery: memtable flushes, the merged
// cross-tier iterator, and level compaction.
//
// Flush (synchronous, under the store mutex): the memtable's rows and
// tombstones stream into one new level-0 segment, the manifest is
// rewritten to cover the entire WAL, the WAL truncates to zero, and the
// memtable empties. Cost is O(memtable), regardless of how much data the
// older segments hold — the win over the pre-tiered full-store snapshot.
//
// Compaction (background goroutine): when a level accumulates fanout
// segments, they merge into one segment at the next level. Invariants:
//   - segments cover disjoint WAL-sequence ranges, so "newer" is a total
//     order (seqHi) and the newest version of a row is simply the first
//     one found scanning newest-to-oldest;
//   - merging a whole level preserves that disjointness (the inputs are
//     contiguous in sequence space);
//   - a superseded row version is dropped as soon as a newer segment
//     version merges past it; a tombstone is dropped only when nothing
//     older than the merge inputs remains to mask.
// Write amplification is O(log_fanout n) per row, against the O(n) of the
// old design's every-4096-records full rewrite.

// DefaultMergeFanout is how many segments accumulate on a level before
// the background compactor merges them into the next level.
const DefaultMergeFanout = 4

// segName returns the file name for segment id.
func segName(id uint64) string { return fmt.Sprintf("seg-%08d.seg", id) }

// --- flush ----------------------------------------------------------------

// compactLocked flushes the memtable and, for the explicit Compact call,
// merges every segment into one. Caller holds s.mu.
func (s *Store) compactLocked(mergeAll bool) error {
	if err := s.flushLocked(); err != nil {
		return err
	}
	if mergeAll {
		return s.mergeAllLocked()
	}
	s.kickMerger()
	return nil
}

// flushLocked writes the memtable to a new level-0 segment, rewrites the
// manifest to cover the whole WAL, truncates the WAL, and empties the
// memtable. Caller holds s.mu. A failure before the manifest rename
// leaves the previous manifest + full WAL standing — a complete state.
func (s *Store) flushLocked() error {
	entries := s.mem.entries()
	if len(s.segs) == 0 {
		// No older tier to mask: tombstones have nothing to suppress.
		kept := entries[:0]
		for _, e := range entries {
			if e.obj != nil {
				kept = append(kept, e)
			}
		}
		entries = kept
	}

	var newSeg *segment
	newSegs := s.segs
	if len(entries) > 0 {
		id := s.nextSegID
		s.nextSegID++
		w, err := newSegWriter(filepath.Join(s.dir, segName(id)), id, 0, s.snapSeq+1, s.seq, len(entries))
		if err != nil {
			return fmt.Errorf("logstore: flush: %w", err)
		}
		for _, e := range entries {
			if err := w.add(e); err != nil {
				w.abort()
				return fmt.Errorf("logstore: flush: %w", err)
			}
		}
		if newSeg, err = w.finish(); err != nil {
			return fmt.Errorf("logstore: flush: %w", err)
		}
		newSegs = append([]*segment{newSeg}, s.segs...)
	}

	prevSnapSeq, prevLive := s.snapSeq, s.liveCovered
	s.snapSeq = s.seq
	s.liveCovered = int(s.live.Load())
	if err := s.writeManifestLocked(newSegs); err != nil {
		s.snapSeq, s.liveCovered = prevSnapSeq, prevLive
		if newSeg != nil {
			newSeg.closeFile()
			//lint:allow errdrop best-effort cleanup of an orphan segment; the manifest never referenced it, so a leftover file is garbage, not data loss
			os.Remove(newSeg.path)
		}
		return fmt.Errorf("logstore: flush: %w", err)
	}
	// The WAL handle is O_APPEND, so writes after the truncate start at
	// the new (zero) end of file. A crash between the manifest rename and
	// this truncate is harmless: every WAL record is now covered and
	// replay skips it.
	if err := os.Truncate(filepath.Join(s.dir, walName), 0); err != nil {
		return fmt.Errorf("logstore: flush: %w", err)
	}
	s.walSize = 0
	s.sinceSnap = 0
	s.bytesSnap = 0
	s.installSegsLocked(newSegs)
	s.mem.clear()
	s.stats.Compactions++
	return nil
}

// installSegsLocked publishes a new segment list to readers. Caller holds
// s.mu; the brief write lock on segMu orders against in-flight reads.
func (s *Store) installSegsLocked(segs []*segment) {
	s.segMu.Lock()
	s.segs = segs
	s.segMu.Unlock()
}

// acquireSegs snapshots the live segment list newest-first, pinning each
// segment against concurrent compaction drops. The list is copy-on-write —
// installSegsLocked swaps it and nothing edits it in place — so the slice
// itself is the snapshot.
func (s *Store) acquireSegs() []*segment {
	s.segMu.RLock()
	segs := s.segs
	for _, g := range segs {
		g.acquire()
	}
	s.segMu.RUnlock()
	return segs
}

func releaseSegs(segs []*segment) {
	for _, g := range segs {
		g.release()
	}
}

// --- merged iteration -----------------------------------------------------

// mergeCursor is one sorted source feeding the cross-tier merge: the
// memtable snapshot, or a segment's streaming iterator.
type mergeCursor struct {
	cur  flushEntry
	ok   bool
	next func() (flushEntry, bool, error)
}

func (c *mergeCursor) advance() error {
	e, ok, err := c.next()
	c.cur, c.ok = e, ok
	return err
}

// merge streams srcs — sorted sources, ordered newest first — as one sorted
// run: emit is called once per id with the entry of the newest source that
// holds it, row or tombstone, and every older holder is superseded and
// passed over without being decoded. The entry is valid until emit
// returns; emit ends the merge early by returning false. It is the one
// merge loop of the store: scans and compaction differ only in what they
// do with a winner.
func merge(srcs []*mergeCursor, emit func(e *flushEntry) (more bool, err error)) error {
	for _, c := range srcs {
		if err := c.advance(); err != nil {
			return err
		}
	}
	for {
		minID, any := "", false
		for _, c := range srcs {
			if c.ok && (!any || c.cur.id < minID) {
				minID, any = c.cur.id, true
			}
		}
		if !any {
			return nil
		}
		emitted := false
		for _, c := range srcs {
			if !c.ok || c.cur.id != minID {
				continue
			}
			if !emitted {
				emitted = true
				if more, err := emit(&c.cur); err != nil || !more {
					return err
				}
			}
			if err := c.advance(); err != nil {
				return err
			}
		}
	}
}

// iterate streams the merged live view — memtable over segments, newest
// first — in sorted id order, calling fn once per live row; tombstones and
// superseded versions are filtered out. What fn gets is the entry, not a
// row: a memtable entry lends the stored row (callers that keep it must
// clone), a segment entry is raw bytes until fn decodes what it needs of
// them. This is how Range, Digest and Snapshot see one coherent store
// without materialising it: memory cost is one record per source.
func (s *Store) iterate(fn func(e *flushEntry) (more bool, err error)) error {
	// Memtable snapshot BEFORE pinning segments: a flush between the two
	// moves rows memtable->segment, and this order sees them (twice at
	// worst, deduplicated by the merge; the reverse order would see them
	// nowhere).
	mem := s.mem.entries()
	segs := s.acquireSegs()
	defer releaseSegs(segs)

	srcs := make([]*mergeCursor, 0, len(segs)+1)
	memIdx := 0
	srcs = append(srcs, &mergeCursor{next: func() (flushEntry, bool, error) {
		if memIdx >= len(mem) {
			return flushEntry{}, false, nil
		}
		e := mem[memIdx]
		memIdx++
		return e, true, nil
	}})
	for _, g := range segs {
		srcs = append(srcs, &mergeCursor{next: g.iter().next})
	}
	return merge(srcs, func(e *flushEntry) (bool, error) {
		if e.tomb() {
			return true, nil
		}
		return fn(e)
	})
}

// --- level compaction -----------------------------------------------------

// kickMerger nudges the background compactor; no-op when it is disabled
// or already signalled.
func (s *Store) kickMerger() {
	if !s.bgMerge {
		return
	}
	select {
	case s.mergeKick <- struct{}{}:
	default:
	}
}

// mergerLoop is the background compactor: woken after each flush, it
// merges over-full levels until none remain, then sleeps.
func (s *Store) mergerLoop() {
	defer s.mergeWG.Done()
	for {
		select {
		case <-s.closing:
			return
		case <-s.mergeKick:
		}
		for {
			select {
			case <-s.closing:
				return
			default:
			}
			s.mergeMu.Lock()
			did := s.mergeOnce()
			s.mergeMu.Unlock()
			if !did {
				break
			}
		}
	}
}

// pickMergeLocked finds the lowest level holding at least fanout
// segments. Caller holds s.mu. dropTombs is true when nothing older than
// the inputs exists (no higher level), so tombstones have nothing left
// to mask.
func (s *Store) pickMergeLocked() (inputs []*segment, level int, dropTombs bool) {
	byLevel := map[int][]*segment{}
	maxLevel := 0
	for _, g := range s.segs {
		byLevel[g.level] = append(byLevel[g.level], g)
		if g.level > maxLevel {
			maxLevel = g.level
		}
	}
	for l := 0; l <= maxLevel; l++ {
		if len(byLevel[l]) >= s.fanout {
			return byLevel[l], l, l == maxLevel
		}
	}
	return nil, 0, false
}

// mergeOnce performs one level merge if any level is over-full,
// reporting whether it did work. Failures are counted, never surfaced:
// the inputs stay live and the next cycle retries.
func (s *Store) mergeOnce() bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	inputs, level, dropTombs := s.pickMergeLocked()
	var outID uint64
	if inputs != nil {
		outID = s.nextSegID
		s.nextSegID++
	}
	s.mu.Unlock()
	if inputs == nil {
		return false
	}
	if err := s.mergeSegments(inputs, outID, level+1, dropTombs); err != nil {
		s.mu.Lock()
		s.stats.CompactionFailures++
		s.mu.Unlock()
		return false
	}
	return true
}

// mergeAllLocked synchronously merges every segment into one — the
// explicit Compact path. Caller holds s.mu (see mergeSegments for why
// that is safe here: it re-locks only in its install step, so this caller
// must release around it).
func (s *Store) mergeAllLocked() error {
	if len(s.segs) < 2 {
		return nil
	}
	inputs := append([]*segment(nil), s.segs...)
	maxLevel := 0
	for _, g := range inputs {
		if g.level > maxLevel {
			maxLevel = g.level
		}
	}
	outID := s.nextSegID
	s.nextSegID++
	s.mu.Unlock()
	err := s.mergeSegments(inputs, outID, maxLevel+1, true)
	s.mu.Lock()
	if err != nil {
		s.stats.CompactionFailures++
		return fmt.Errorf("logstore: merge: %w", err)
	}
	return nil
}

// mergeSegments streams the inputs (newest first) through merge into one
// segment at outLevel, installs it in the manifest, and drops the inputs.
// Inputs are immutable, so the merge body runs without the store mutex;
// only the install step takes it.
func (s *Store) mergeSegments(inputs []*segment, outID uint64, outLevel int, dropTombs bool) error {
	expect := 0
	seqLo, seqHi := inputs[0].seqLo, inputs[0].seqHi
	for _, g := range inputs {
		expect += g.count
		if g.seqLo < seqLo {
			seqLo = g.seqLo
		}
		if g.seqHi > seqHi {
			seqHi = g.seqHi
		}
	}
	srcs := make([]*mergeCursor, 0, len(inputs))
	ordered := append([]*segment(nil), inputs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seqHi > ordered[j].seqHi })
	for _, g := range ordered {
		srcs = append(srcs, &mergeCursor{next: g.iter().next})
	}

	path := filepath.Join(s.dir, segName(outID))
	w, err := newSegWriter(path, outID, outLevel, seqLo, seqHi, expect)
	if err != nil {
		return err
	}
	// A winning row is written as the record it was read as; nothing is
	// decoded on this path.
	err = merge(srcs, func(e *flushEntry) (bool, error) {
		if e.tomb() && dropTombs {
			return true, nil
		}
		return true, w.add(*e)
	})
	if err != nil {
		w.abort()
		return err
	}
	out, err := w.finish()
	if err != nil {
		return err
	}

	// Install: replace the inputs with the output in the live list and
	// the manifest. An empty output (everything superseded or tombstoned
	// away) installs nothing.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		out.closeFile()
		//lint:allow errdrop best-effort cleanup of an uninstalled merge output; it was never in the manifest, so a leftover file is garbage, not data loss
		os.Remove(out.path)
		return nil
	}
	inSet := make(map[*segment]bool, len(inputs))
	for _, g := range inputs {
		inSet[g] = true
	}
	var newSegs []*segment
	for _, g := range s.segs {
		if !inSet[g] {
			newSegs = append(newSegs, g)
		}
	}
	if out.count > 0 {
		newSegs = append(newSegs, out)
		sort.Slice(newSegs, func(i, j int) bool { return newSegs[i].seqHi > newSegs[j].seqHi })
	}
	if err := s.writeManifestLocked(newSegs); err != nil {
		s.mu.Unlock()
		out.closeFile()
		//lint:allow errdrop best-effort cleanup of an uninstalled merge output; the manifest write already failed and carries the real error
		os.Remove(out.path)
		return err
	}
	s.installSegsLocked(newSegs)
	s.stats.Compactions++
	s.stats.Merges++
	s.mu.Unlock()
	if out.count == 0 {
		out.closeFile()
		//lint:allow errdrop best-effort cleanup of an empty merge output that was never installed; a leftover file is garbage, not data loss
		os.Remove(out.path)
	}
	for _, g := range inputs {
		g.drop()
	}
	return nil
}

// segLookup probes the segments newest-first for id, maintaining the
// probe counters. ok distinguishes a live row from absence (including a
// tombstone masking older versions). A probe that fails (pread error,
// corrupt chunk) aborts the scan: treating it as a miss and falling
// through would let an older segment answer with a stale version, or
// report a tombstoned row as absent so a caller recreates it with a
// fresh version vector.
func (s *Store) segLookup(id string) (*information.Object, bool, error) {
	segs := s.acquireSegs()
	defer releaseSegs(segs)
	for _, g := range segs {
		obj, probe, err := g.get(id)
		if err != nil {
			s.readFailures.Add(1)
			return nil, false, fmt.Errorf("logstore: segment %s: read %q: %w", filepath.Base(g.path), id, err)
		}
		switch probe {
		case probeSkipRange:
			s.rangeFiltered.Add(1)
		case probeSkipBloom:
			s.bloomFiltered.Add(1)
		case probeMiss:
			s.segProbes.Add(1)
			s.bloomFalse.Add(1)
		case probeRow:
			s.segProbes.Add(1)
			return obj, true, nil
		case probeTomb:
			s.segProbes.Add(1)
			return nil, false, nil
		}
	}
	return nil, false, nil
}

// lookup resolves id across every tier: memtable first (rows and
// tombstones both answer authoritatively), then segments newest-first.
// fromMem rows alias live memtable state.
func (s *Store) lookup(id string) (obj *information.Object, live, fromMem bool, err error) {
	if obj, tomb, found := s.mem.get(id); found {
		if tomb {
			return nil, false, false, nil
		}
		return obj, true, true, nil
	}
	obj, ok, err := s.segLookup(id)
	return obj, ok, false, err
}

// hasAny reports whether id is live in any tier — the endpoint-existence
// check behind Relate and WAL replay. A failed segment probe reads as
// absent (counted in Stats): Relate then refuses the edge rather than
// building on a row it cannot see, and replay's idempotence makes the
// miscount self-correcting on the next recovery.
func (s *Store) hasAny(id string) bool {
	//lint:allow errdrop a failed probe reads as absent by design (see doc comment); the error is already counted in Stats.ReadFailures by lookup
	_, live, _, _ := s.lookup(id)
	return live
}
