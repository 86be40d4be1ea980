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
// fail to decode on recovery, taking every later record with it, and a
// Version other than the vector's sum, which the codec does not carry,
// would read back as the sum.
func validateDurable(o *information.Object) error {
	if sum := o.VV.Sum(); o.Version != sum {
		return fmt.Errorf("logstore: %s at version %d, its vector sums to %d", o.ID, o.Version, sum)
	}
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

// walTail is the WAL as Open found it: its intact prefix, decoded, the
// prefix's length and the file's.
type walTail struct {
	recs       []walRecord
	good, size int
}

// readWAL decodes the WAL's intact prefix without changing anything: the
// first record that fails framing or decoding ends it. An intact record of
// a retired type, or a row naming a schema id that neither this process
// nor the schema file defines, is no torn tail: it refuses the store with
// ErrRetiredRecord or information.ErrUnknownSchema, before Open has
// touched the log.
func (s *Store) readWAL() (walTail, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, walName))
	if errors.Is(err, fs.ErrNotExist) {
		return walTail{}, nil
	}
	if err != nil {
		return walTail{}, fmt.Errorf("logstore: %w", err)
	}
	tail := walTail{size: len(data)}
	for rest := data; len(rest) > 0; {
		payload, next, err := wire.NextRecord(rest)
		if err != nil {
			break
		}
		rec, err := decodeWALRecord(payload)
		if errors.Is(err, ErrRetiredRecord) || errors.Is(err, information.ErrUnknownSchema) {
			return walTail{}, fmt.Errorf("logstore: %s: %w", walName, err)
		}
		if err != nil {
			break
		}
		rest = next
		tail.recs = append(tail.recs, rec)
		tail.good = len(data) - len(rest)
	}
	return tail, nil
}

// replayWAL applies the WAL tail, rows alone, over the manifest state (a
// tail holding a removal was folded instead; see legacy.go). Records the
// manifest already covers (seq <= snapSeq) are skipped; the torn suffix
// past the intact prefix is truncated so future appends extend a clean
// log.
func (s *Store) replayWAL(tail walTail) error {
	for _, rec := range tail.recs {
		if rec.seq > s.seq {
			s.seq = rec.seq
		}
		if rec.seq <= s.snapSeq {
			s.stats.SkippedRecords++
			continue
		}
		existed := s.hasAny(rec.obj.ID)
		s.mem.put(rec.obj)
		if !existed {
			s.live.Add(1)
		}
		s.stats.ReplayedRecords++
	}
	if tail.good < tail.size {
		s.stats.DiscardedBytes = int64(tail.size - tail.good)
		if err := os.Truncate(filepath.Join(s.dir, walName), int64(tail.good)); err != nil {
			return fmt.Errorf("logstore: truncate torn tail: %w", err)
		}
	}
	s.walSize = int64(tail.good)
	return nil
}
