package logstore

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"mocca/internal/information"
	"mocca/internal/wire"
)

// This file is the write-ahead log: what may be logged (validateDurable),
// the one append every mutation goes through and its rollback, the fsync,
// and the replay that Open runs over the log's tail.

// validateDurable rejects rows the WAL codec cannot round-trip: a string
// at or past wire's length limit would be acknowledged as durable yet
// fail to decode on recovery, taking every later record with it.
func validateDurable(o *information.Object) error {
	for _, str := range []string{o.ID, o.Schema, o.Owner, o.Site} {
		if len(str) >= wire.MaxStringLen {
			return fmt.Errorf("logstore: object metadata %d bytes: %w", len(str), wire.ErrOversize)
		}
	}
	for k, v := range o.Fields {
		if len(k) >= wire.MaxStringLen || len(v) >= wire.MaxStringLen {
			return fmt.Errorf("logstore: field %.32q value %d bytes: %w", k, len(v), wire.ErrOversize)
		}
	}
	return nil
}

// validateDurableRelation is validateDurable for an edge.
func validateDurableRelation(rel information.Relation) error {
	for _, str := range []string{rel.From, string(rel.Kind), rel.To} {
		if len(str) >= wire.MaxStringLen {
			return fmt.Errorf("logstore: relation endpoint %d bytes: %w", len(str), wire.ErrOversize)
		}
	}
	return nil
}

// recordLocked starts the next WAL record in the scratch payload: its type
// and the sequence number it will carry. The caller appends the body and
// hands the result to appendLocked, which is what assigns the number — a
// record that is never appended consumes none.
func (s *Store) recordLocked(typ byte) []byte {
	return appendWALPayload(s.payload[:0], typ, s.seq+1)
}

// appendLocked frames payload (a record begun by recordLocked) and writes
// it to the WAL, syncing it under WithFsync. A frame that was not written
// whole, or was written but could not be synced, is truncated back off the
// log: left there it would sit torn in front of future appends, or
// resurrect on recovery a write the caller was told failed, and walSize
// would trail the real end of file so that a later rollback tore a
// committed record. If that truncate fails too, the store goes read-only —
// appending past such a frame would be acknowledging writes the next
// recovery silently discards.
func (s *Store) appendLocked(payload []byte) error {
	s.payload = payload // keep the scratch buffer's growth
	frame, err := wire.AppendRecord(s.frame[:0], payload)
	if err != nil {
		return err
	}
	s.frame = frame
	_, err = s.wal.Write(frame)
	if err == nil && s.fsync {
		err = s.syncLocked()
	}
	if err != nil {
		if terr := os.Truncate(filepath.Join(s.dir, walName), s.walSize); terr != nil {
			s.broken = true
			return fmt.Errorf("logstore: append failed (%v), rollback failed (%v): %w", err, terr, ErrReadOnly)
		}
		return fmt.Errorf("logstore: append: %w", err)
	}
	s.seq++
	s.walSize += int64(len(frame))
	s.sinceSnap++
	s.bytesSnap += int64(len(frame))
	s.stats.Appends++
	s.stats.AppendedBytes += int64(len(frame))
	return nil
}

// syncLocked forces the WAL to stable storage and counts the fsync.
func (s *Store) syncLocked() error {
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.stats.Fsyncs++
	return nil
}

// Sync forces the WAL to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.syncLocked()
}

// writeFrame frames s.payload into the scratch frame buffer and writes it
// to w.
func (s *Store) writeFrame(w *bufio.Writer) error {
	frame, err := wire.AppendRecord(s.frame[:0], s.payload)
	if err != nil {
		return err
	}
	s.frame = frame
	_, err = w.Write(frame)
	return err
}

// replayWAL applies the WAL tail over the manifest state. Records the
// manifest already covers (seq <= snapSeq) are skipped; the first record
// that fails framing or decoding ends the intact prefix and the torn
// suffix is truncated so future appends extend a clean log.
func (s *Store) replayWAL() error {
	path := filepath.Join(s.dir, walName)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("logstore: %w", err)
	}
	rest := data
	for len(rest) > 0 {
		payload, next, err := wire.NextRecord(rest)
		if err != nil {
			break
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			break
		}
		rest = next
		if rec.seq > s.seq {
			s.seq = rec.seq
		}
		if rec.seq <= s.snapSeq {
			s.stats.SkippedRecords++
			continue
		}
		switch rec.typ {
		case recExec:
			existed := s.hasAny(rec.obj.ID)
			s.mem.put(rec.obj)
			if !existed {
				s.live.Add(1)
			}
		case recRelate:
			// Replaying an existing edge is a no-op. A refused edge (cycle,
			// missing endpoint) is skipped, not fatal: Relate validates
			// before it logs, but stores written before it did could crash
			// between logging an edge and taking it back, and their logs
			// must keep opening.
			if s.checkRelation(rec.rel) != nil {
				s.stats.SkippedRecords++
				continue
			}
			s.mem.Add(rec.rel)
		case recRemove:
			// Removing an absent row is a no-op, which makes replay
			// idempotent over manifest-covered evictions.
			if s.hasAny(rec.id) {
				s.mem.kill(rec.id, len(s.segs) > 0)
				s.live.Add(-1)
			}
		}
		s.stats.ReplayedRecords++
	}
	good := len(data) - len(rest) // bytes of intact, applied prefix
	if good < len(data) {
		s.stats.DiscardedBytes = int64(len(data) - good)
		if err := os.Truncate(path, int64(good)); err != nil {
			return fmt.Errorf("logstore: truncate torn tail: %w", err)
		}
	}
	s.walSize = int64(good)
	return nil
}
