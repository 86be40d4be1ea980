// Package logstore is the durable engineering realisation of the
// information store: an information.Backend whose replica survives a site
// crash. It is a tiered, log-structured store:
//
//   - wal.log — an append-only write-ahead log. Every Exec that stores a
//     row, every Relate and every Remove appends one CRC-framed record
//     (wire.AppendRecord) carrying a monotonic sequence number and the
//     full post-state of the mutation — object rows round-trip with their
//     version vectors and writer-site metadata intact, so a recovered
//     replica re-enters anti-entropy with correct digests.
//   - memtable — the rows written since the last flush, plus the whole
//     relationship graph (small: edges, not rows). Reads consult it first.
//   - seg-*.seg — sorted, immutable segment files. When the memtable
//     grows past the flush threshold it streams into a new level-0
//     segment; a background compactor merges over-full levels into the
//     next level, dropping superseded row versions and removed rows.
//     Each segment carries a bloom filter and key-range metadata, so a
//     point read touches at most the one or two segments that can hold
//     the id and a miss is usually answered without touching disk at all.
//   - snapshot.snap — the manifest, an incremental snapshot: the live
//     segment list, the covered WAL sequence and the relationship graph,
//     written to a temporary file, fsynced, and atomically renamed.
//     After a successful flush the WAL is truncated.
//
// Recovery (Open) loads the manifest, opens each segment's footer and
// metadata (never its rows), and replays the WAL tail, skipping records
// the manifest already covers — O(manifest + WAL tail), not O(data).
// A torn or corrupt record ends the replay: everything before it is
// intact (the CRC guarantees it), the garbage suffix is truncated away,
// and the store resumes appending from the last good record — the
// standard WAL discipline.
//
// Rows follow information.Store's rule — a stored row never changes, it is
// only replaced: a put swaps the memtable's pointer, a flush drops the map,
// nothing edits a row. So memtable rows are lent as stored (Peek, Range,
// the Exec callback's argument, Exec's result), segment rows are decoded
// for the call that asked, and Get, Snapshot and Remove return copies.
// Segment reads decode what their caller needs and no more: the cross-tier
// merge compares ids over raw records (each still CRC-checked and walked
// end to end) and decodes only the winner of an id — whole for Range and
// Snapshot, its vector alone for Digest, not at all for compaction, which
// copies the record's bytes.
//
// The store adds one serialisation point: mutations are ordered by the
// store's own mutex so the WAL's record order always equals the in-memory
// commit order.
package logstore

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"mocca/internal/information"
	"mocca/internal/observe"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// On-disk file names within a store directory. snapshot.snap holds the
// manifest (see manifest.go); segment files are named by segName.
const (
	walName     = "wal.log"
	snapName    = "snapshot.snap"
	snapTmpName = "snapshot.tmp"
)

// DefaultCompactEvery is how many WAL records accumulate before an
// automatic flush (memtable -> segment, manifest rewrite, WAL truncate).
const DefaultCompactEvery = 4096

// ErrClosed reports a mutation attempted after Close.
var ErrClosed = errors.New("logstore: store closed")

// ErrReadOnly reports a mutation after the store failed: a WAL write
// tore a frame mid-log and the compensating truncate also failed, so
// further appends would land behind bytes the next recovery discards.
// Reads keep working; the disk state up to the last intact record is
// recoverable.
var ErrReadOnly = errors.New("logstore: store failed, mutations disabled")

// Stats counts store activity, including what recovery found.
type Stats struct {
	Appends            int64 // WAL records appended this process
	AppendedBytes      int64 // WAL bytes appended this process
	Compactions        int64 // flushes + level merges completed
	CompactionFailures int64 // failed flushes/merges (writes stay durable in the WAL)
	Merges             int64 // level merges completed (subset of Compactions)
	Segments           int   // live segment files right now (gauge)

	// Group-commit counters: Flushes is how many write(+fsync) windows
	// drained the batch buffer, FlushedRecords how many records they
	// covered — FlushedRecords/Flushes is the realised batching factor.
	// Fsyncs counts every WAL fsync in either mode.
	Flushes        int64
	FlushedRecords int64
	Fsyncs         int64

	// Point-read probe counters. A read that misses the memtable walks the
	// segments newest-first; KeyRangeFiltered and BloomFiltered count the
	// segments dismissed without touching disk, SegmentProbes the bounded
	// preads actually issued, and BloomFalsePositives the probes the bloom
	// filter admitted that found nothing.
	SegmentProbes       int64
	BloomFiltered       int64
	BloomFalsePositives int64
	KeyRangeFiltered    int64

	// SegmentReadFailures counts point reads aborted by a segment I/O or
	// decode error. Exec/Remove surface the error to the caller; Get's
	// signature has no error slot, so this counter is where those
	// failures become visible.
	SegmentReadFailures int64

	// IterationFailures counts merged-view scans (Range, Snapshot,
	// Digest) cut short by a segment I/O or decode error.
	// Those Backend signatures have no error slot either — the caller
	// sees a truncated view, so the failure must at least be visible
	// here (a silently partial digest would ship an incomplete
	// anti-entropy summary and a partial Range would rebuild a wrong
	// Merkle tree without anyone knowing).
	IterationFailures int64

	RecoveredObjects   int   // rows live after Open (manifest + replay)
	RecoveredRelations int   // edges loaded by Open
	ReplayedRecords    int   // WAL records applied by Open
	SkippedRecords     int   // WAL records the manifest already covered
	DiscardedBytes     int64 // corrupt/torn WAL suffix truncated by Open
}

// Option configures a Store.
type Option func(*Store)

// WithFsync makes every append (and every segment/manifest write) fsync
// before returning. Off by default: the simulated crash model is process
// death, for which reaching the OS page cache suffices.
func WithFsync(on bool) Option {
	return func(s *Store) { s.fsync = on }
}

// WithCompactEvery sets how many WAL records accumulate before the
// memtable automatically flushes to a segment; 0 disables automatic
// flushing (Compact can still be called explicitly).
func WithCompactEvery(n int) Option {
	return func(s *Store) { s.compactEvery = n }
}

// WithFlushBytes sets how many WAL bytes accumulate before the memtable
// automatically flushes to a segment, independently of the record-count
// trigger — a handful of huge rows fills the WAL long before
// WithCompactEvery records accumulate. 0 (the default) disables the
// size trigger; whichever enabled trigger fires first flushes.
func WithFlushBytes(n int64) Option {
	return func(s *Store) { s.flushBytes = n }
}

// WithMergeFanout sets how many segments accumulate on a level before
// the background compactor merges them into the next level. Lower values
// mean fewer segments per read but more write amplification.
func WithMergeFanout(n int) Option {
	return func(s *Store) {
		if n >= 2 {
			s.fanout = n
		}
	}
}

// WithBackgroundMerge enables or disables the background level
// compactor. On by default; with it off, segments still merge on an
// explicit Compact call.
func WithBackgroundMerge(on bool) Option {
	return func(s *Store) { s.bgMerge = on }
}

// WithGroupCommit batches concurrent WAL appends into one write-and-fsync
// window: each mutation commits in memory and enqueues its framed record
// under the store mutex, then waits OUTSIDE it for a group flush to make
// the record durable — the first waiter drains the whole queue with a
// single write (and, under WithFsync, a single fsync), so N concurrent
// writers cost one sync instead of N.
//
// The trade against the default (append-then-commit under one mutex) is
// the failure mode: a batch that cannot be written leaves memory ahead of
// disk for the writers already committed, so the store turns read-only
// (ErrReadOnly) instead of rolling back. No acknowledged write is ever
// lost in either mode — waiters only return success once their record is
// durable (or covered by a flush).
func WithGroupCommit(on bool) Option {
	return func(s *Store) { s.group = on }
}

// Store is the disk-backed information.Backend. Reads resolve across the
// tiers (memtable, then segments newest-first); mutations append to the
// WAL and commit to the memtable before returning.
type Store struct {
	mem          *memtable
	dir          string
	fsync        bool
	group        bool
	compactEvery int
	flushBytes   int64
	fanout       int
	bgMerge      bool

	// Telemetry, set once at wiring time before any traffic (see
	// SetTelemetry); both are nil-safe when absent.
	tracer  *observe.Tracer
	objects *observe.ObjectTraces
	site    string

	mu          sync.Mutex // orders mutations; WAL order == commit order
	wal         *os.File
	walSize     int64  // bytes of intact records on disk (inline mode)
	seq         uint64 // last assigned record sequence number
	snapSeq     uint64 // sequence covered by the manifest on disk
	sinceSnap   int    // records appended since the last flush
	bytesSnap   int64  // record bytes appended since the last flush
	liveCovered int    // live row count at snapSeq (manifest header field)
	nextSegID   uint64 // next segment file id
	closed      bool
	broken      bool   // torn frame stuck mid-log; see ErrReadOnly
	payload     []byte // scratch: record payload
	frame       []byte // scratch: framed record
	stats       Stats

	// live is the row count across all tiers, maintained on every commit
	// so Len never has to merge the store.
	live atomic.Int64

	// segMu guards the segment list; the list itself is copy-on-write
	// (install swaps the slice) so readers pin a consistent snapshot.
	segMu sync.RWMutex
	segs  []*segment // newest first (descending seqHi)

	// Point-read probe counters (see Stats). Atomic: reads don't hold s.mu.
	segProbes     atomic.Int64
	bloomFiltered atomic.Int64
	bloomFalse    atomic.Int64
	rangeFiltered atomic.Int64
	readFailures  atomic.Int64
	iterFailures  atomic.Int64

	// Background compactor plumbing. Lock order: mergeMu before s.mu.
	mergeMu   sync.Mutex // serialises level merges (background vs Compact)
	mergeKick chan struct{}
	closing   chan struct{}
	mergeWG   sync.WaitGroup

	// Group-commit state. Lock order: s.mu before g.mu; the flusher holds
	// neither while writing (it owns the file through g.flushing). In
	// group mode the WAL file and durability watermark are governed here,
	// not by s.walSize.
	g groupState
}

// groupState is the group-commit machinery: the batch buffer, the
// durability watermark and the flush-leader latch. Everything in it is
// guarded by its own mutex so the flusher and the waiters never need
// s.mu.
type groupState struct {
	mu       sync.Mutex
	cond     *sync.Cond
	buf      []byte // framed records enqueued, not yet written
	bufRecs  int    // records in buf
	hiEnq    uint64 // highest seq enqueued
	hiDur    uint64 // highest seq durable (written + fsynced/covered)
	durSize  int64  // bytes of wal.log that are durable
	flushing bool   // a leader is writing the current batch
	err      error  // sticky batch failure; mutations are disabled

	flushes        int64
	flushedRecords int64
	fsyncs         int64
}

// Store implements information.Backend.
var _ information.Backend = (*Store)(nil)

// Open opens (or creates) the store rooted at dir and recovers its state:
// manifest load, segment metadata load, WAL tail replay, torn-suffix
// truncation. A leftover temporary manifest or an orphaned segment file
// from a crash mid-flush is discarded — the previous manifest plus the
// un-truncated WAL is a complete state.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{
		mem:          newMemtable(),
		dir:          dir,
		compactEvery: DefaultCompactEvery,
		fanout:       DefaultMergeFanout,
		bgMerge:      true,
		nextSegID:    1,
		mergeKick:    make(chan struct{}, 1),
		closing:      make(chan struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("logstore: %w", err)
	}
	// A snapshot.tmp can only exist if a flush died before its atomic
	// rename; it is unreferenced garbage.
	if err := os.Remove(filepath.Join(dir, snapTmpName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("logstore: %w", err)
	}
	if err := s.loadManifestState(); err != nil {
		for _, g := range s.segs {
			g.closeFile()
		}
		return nil, err
	}
	s.live.Store(int64(s.liveCovered))
	if err := s.replayWAL(); err != nil {
		for _, g := range s.segs {
			g.closeFile()
		}
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("logstore: %w", err)
	}
	s.wal = wal
	s.g.cond = sync.NewCond(&s.g.mu)
	s.g.hiEnq, s.g.hiDur = s.seq, s.seq
	s.g.durSize = s.walSize
	s.stats.RecoveredObjects = int(s.live.Load())
	s.stats.RecoveredRelations = len(s.mem.Relations())
	if s.bgMerge {
		s.mergeWG.Add(1)
		go s.mergerLoop()
		s.kickMerger() // a crash may have left a level over-full
	}
	return s, nil
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
		for _, rel := range m.rels {
			s.mem.loadRelation(rel)
		}
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

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the counters, folding in the group-commit
// flush counters, the probe counters and the live segment gauge.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	s.g.mu.Lock()
	out.Flushes += s.g.flushes
	out.FlushedRecords += s.g.flushedRecords
	out.Fsyncs += s.g.fsyncs
	s.g.mu.Unlock()
	s.segMu.RLock()
	out.Segments = len(s.segs)
	s.segMu.RUnlock()
	out.SegmentProbes = s.segProbes.Load()
	out.BloomFiltered = s.bloomFiltered.Load()
	out.BloomFalsePositives = s.bloomFalse.Load()
	out.KeyRangeFiltered = s.rangeFiltered.Load()
	out.SegmentReadFailures = s.readFailures.Load()
	out.IterationFailures = s.iterFailures.Load()
	return out
}

// Close flushes (draining any group-commit batch), closes the WAL and
// stops the background compactor. Reads keep working across the tiers
// (segment file handles stay open); further mutations fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if s.group {
		if derr := s.drainGroupLocked(); derr != nil {
			err = fmt.Errorf("logstore: close: %w", derr)
		}
	}
	if err == nil && s.fsync {
		if serr := s.wal.Sync(); serr != nil {
			err = fmt.Errorf("logstore: %w", serr)
		}
	}
	if cerr := s.wal.Close(); err == nil && cerr != nil {
		err = cerr
	}
	s.mu.Unlock()
	close(s.closing)
	s.mergeWG.Wait()
	return err
}

// Sync forces the WAL to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.wal.Sync()
}

// --- recovery -------------------------------------------------------------

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
	good := 0 // bytes of intact, applied prefix
	for len(rest) > 0 {
		payload, next, err := wire.NextRecord(rest)
		if err != nil {
			break
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			break
		}
		if rec.seq > s.seq {
			s.seq = rec.seq
		}
		if rec.seq <= s.snapSeq {
			s.stats.SkippedRecords++
		} else {
			switch rec.typ {
			case recExec:
				existed := s.hasAny(rec.obj.ID)
				s.mem.put(rec.obj)
				if !existed {
					s.live.Add(1)
				}
			case recRelate:
				// Replaying an existing edge is a no-op. A refused edge
				// (cycle, missing endpoint) is skipped, not fatal: Relate
				// logs the edge before the graph validates it, so a crash in
				// that window legitimately leaves a refused record behind —
				// failing here would brick every future recovery.
				if err := s.mem.relate(rec.rel.From, rec.rel.Kind, rec.rel.To, s.hasAny); err != nil {
					s.stats.SkippedRecords++
					rest = next
					good = len(data) - len(next)
					continue
				}
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
		good = len(data) - len(next)
		rest = next
	}
	if good < len(data) {
		s.stats.DiscardedBytes = int64(len(data) - good)
		if err := os.Truncate(path, int64(good)); err != nil {
			return fmt.Errorf("logstore: truncate torn tail: %w", err)
		}
	}
	s.walSize = int64(good)
	return nil
}

// --- mutations ------------------------------------------------------------

// Exec runs fn against the row for id under the backend's write
// exclusion. fn is lent the stored row — the memtable's own, or a fresh
// decode of a segment's — read-only: a mutation takes effect only by
// returning a new row to store, which fn gives up and Exec returns, again
// read-only. If fn stores a row, its full post-state is made durable
// before Exec returns success. In the default (inline) mode the WAL
// append precedes the in-memory commit, so a write that cannot be made
// durable (append failure, or a row the codec cannot round-trip) fails
// without changing any state, in memory or on disk. In group-commit mode
// the record is enqueued (and memory committed) under the mutex, and Exec
// then waits outside it for the group flush — see WithGroupCommit for the
// batching and failure semantics.
func (s *Store) Exec(id string, fn func(cur *information.Object) (*information.Object, error)) (*information.Object, error) {
	// When the id carries a trace tag (the write-path layers above tag
	// objects as traffic enters the site), the durable commit — WAL
	// append, or enqueue + group-flush wait — is a span of that trace.
	var span observe.ActiveSpan
	if s.tracer.On() {
		if parent, ok := s.objects.Lookup(id); ok {
			span = s.tracer.StartChild("wal.commit", s.site, parent)
			span.SetAttr("object", id)
		}
	}
	obj, waitSeq, err := s.execLocked(id, fn)
	if err != nil {
		span.EndStatus("error")
		return obj, err
	}
	if obj == nil {
		span.EndStatus("noop")
		return obj, nil
	}
	if waitSeq > 0 {
		span.SetAttr("mode", "group")
		if werr := s.waitDurable(waitSeq); werr != nil {
			span.EndStatus("error")
			return nil, werr
		}
	}
	span.End()
	return obj, nil
}

// SetTelemetry attaches the deployment telemetry plane: Exec emits a
// wal.commit span under the originating write's trace (looked up by
// object id in the shared tag table) covering the append — or, in
// group-commit mode, the enqueue and the wait for the flush window.
// Must be called before the store sees traffic; nil disables tracing.
func (s *Store) SetTelemetry(tel *observe.Telemetry, site string) {
	if tel == nil {
		return
	}
	s.tracer = tel.Tracer
	s.objects = tel.Objects
	s.site = site
}

// writableLocked reports whether mutations are admitted. Caller holds
// s.mu. The inline path records failure in s.broken; a failed group
// batch records it in g.err.
func (s *Store) writableLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.broken {
		return ErrReadOnly
	}
	if s.group {
		s.g.mu.Lock()
		err := s.g.err
		s.g.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// execLocked is Exec's under-mutex half; the durability wait happens
// outside the mutex so group-commit batches can form. waitSeq is
// non-zero when a group-mode caller must wait for that sequence.
func (s *Store) execLocked(id string, fn func(cur *information.Object) (*information.Object, error)) (*information.Object, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return nil, 0, err
	}
	cur, live, _, err := s.lookup(id)
	if err != nil {
		return nil, 0, err
	}
	next, err := fn(cur)
	if err != nil || next == nil {
		return next, 0, err
	}
	if err := validateDurable(next); err != nil {
		return nil, 0, err
	}
	s.seq++
	s.payload = appendWALPayload(s.payload[:0], recExec, s.seq)
	s.payload = information.AppendObject(s.payload, next)
	var waitSeq uint64
	if s.group {
		if err := s.enqueueLocked(); err != nil {
			return nil, 0, err
		}
		waitSeq = s.seq
	} else if err := s.appendLocked(); err != nil {
		return nil, 0, err
	}
	s.mem.put(next)
	if !live {
		s.live.Add(1)
	}
	s.compactIfDueLocked()
	return next, waitSeq, nil
}

// Relate records a typed relationship. Inline mode logs the edge before
// the in-memory commit; a deterministic rejection by the graph (unknown
// endpoint, cycle) rolls the just-appended record back off the log.
// Group mode validates through the in-memory commit FIRST — a rejected
// edge then never reaches the log, which matters because a batched
// record cannot be truncated back out.
func (s *Store) Relate(from string, kind information.RelKind, to string) error {
	waitSeq, err := s.relateLocked(from, kind, to)
	if err != nil || waitSeq == 0 {
		return err
	}
	return s.waitDurable(waitSeq)
}

// relateLocked is Relate's under-mutex half; see execLocked.
func (s *Store) relateLocked(from string, kind information.RelKind, to string) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return 0, err
	}
	rel := information.Relation{From: from, Kind: kind, To: to}
	for _, str := range []string{from, string(kind), to} {
		if len(str) >= wire.MaxStringLen {
			return 0, fmt.Errorf("logstore: relation endpoint %d bytes: %w", len(str), wire.ErrOversize)
		}
	}
	if s.group {
		if err := s.mem.relate(from, kind, to, s.hasAny); err != nil {
			return 0, err
		}
		s.seq++
		s.payload = appendWALPayload(s.payload[:0], recRelate, s.seq)
		s.payload = appendRelation(s.payload, rel)
		if err := s.enqueueLocked(); err != nil {
			return 0, err
		}
		seq := s.seq
		s.compactIfDueLocked()
		return seq, nil
	}
	preSize, preSince, preBytes := s.walSize, s.sinceSnap, s.bytesSnap
	s.seq++
	s.payload = appendWALPayload(s.payload[:0], recRelate, s.seq)
	s.payload = appendRelation(s.payload, rel)
	if err := s.appendLocked(); err != nil {
		return 0, err
	}
	if err := s.mem.relate(from, kind, to, s.hasAny); err != nil {
		// The graph rejected the edge after it hit the log: truncate the
		// record away. Best-effort — replay skips refused edges anyway, so
		// a leftover (crash in this window, or a failed truncate) is noise
		// in the log, not a recovery hazard.
		if terr := os.Truncate(filepath.Join(s.dir, walName), preSize); terr == nil {
			s.stats.Appends--
			s.stats.AppendedBytes -= s.walSize - preSize
			s.walSize, s.sinceSnap, s.bytesSnap = preSize, preSince, preBytes
		}
		return 0, err
	}
	s.compactIfDueLocked()
	return 0, nil
}

// Remove deletes the row for id (and edges touching it), logging the
// eviction so recovery replays it — the placement-migration path on a
// durable replica. When an older version of the row may still sit in a
// segment, the memtable records a tombstone to mask it until compaction
// drops both. A missing id is a no-op and logs nothing.
func (s *Store) Remove(id string) (*information.Object, error) {
	removed, waitSeq, err := s.removeLocked(id)
	if err != nil || waitSeq == 0 {
		return removed, err
	}
	if werr := s.waitDurable(waitSeq); werr != nil {
		return nil, werr
	}
	return removed, nil
}

// removeLocked is Remove's under-mutex half; see execLocked.
func (s *Store) removeLocked(id string) (*information.Object, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return nil, 0, err
	}
	cur, live, fromMem, err := s.lookup(id)
	if err != nil {
		return nil, 0, err
	}
	if !live {
		return nil, 0, nil
	}
	if fromMem {
		cur = cur.Clone()
	}
	if s.group {
		s.mem.kill(id, s.tombNeededLocked())
		s.live.Add(-1)
		s.seq++
		s.payload = appendWALPayload(s.payload[:0], recRemove, s.seq)
		s.payload = wire.AppendString(s.payload, id)
		if err := s.enqueueLocked(); err != nil {
			return nil, 0, err
		}
		seq := s.seq
		s.compactIfDueLocked()
		return cur, seq, nil
	}
	// Inline: log the eviction before removing from memory; a failed
	// append leaves the row in place, matching Exec's discipline.
	s.seq++
	s.payload = appendWALPayload(s.payload[:0], recRemove, s.seq)
	s.payload = wire.AppendString(s.payload, id)
	if err := s.appendLocked(); err != nil {
		return nil, 0, err
	}
	s.mem.kill(id, s.tombNeededLocked())
	s.live.Add(-1)
	s.compactIfDueLocked()
	return cur, 0, nil
}

// tombNeededLocked reports whether a removal must leave a tombstone: only
// when segments exist that could hold an older version of the row.
func (s *Store) tombNeededLocked() bool {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	return len(s.segs) > 0
}

// appendLocked frames s.payload and writes it to the WAL. On a write
// failure the log is truncated back to its last intact length so a torn
// frame cannot sit in front of future appends; if that rollback also
// fails, the store goes read-only — appending past a torn frame would be
// acknowledging writes the next recovery silently discards.
func (s *Store) appendLocked() error {
	frame, err := wire.AppendRecord(s.frame[:0], s.payload)
	if err != nil {
		return err
	}
	s.frame = frame
	if _, err := s.wal.Write(frame); err != nil {
		if terr := os.Truncate(filepath.Join(s.dir, walName), s.walSize); terr != nil {
			s.broken = true
			return fmt.Errorf("logstore: append failed (%v), rollback failed (%v): %w", err, terr, ErrReadOnly)
		}
		return fmt.Errorf("logstore: append: %w", err)
	}
	if s.fsync {
		if err := s.wal.Sync(); err != nil {
			// The frame is on the file but not durable: roll it back out,
			// exactly like a failed write — leaving it would resurrect a
			// write the caller was told failed, and leave walSize behind
			// the real file end so a later rollback could tear a
			// committed record.
			if terr := os.Truncate(filepath.Join(s.dir, walName), s.walSize); terr != nil {
				s.broken = true
				return fmt.Errorf("logstore: fsync failed (%v), rollback failed (%v): %w", err, terr, ErrReadOnly)
			}
			return fmt.Errorf("logstore: append: %w", err)
		}
		s.stats.Fsyncs++
	}
	s.walSize += int64(len(frame))
	s.sinceSnap++
	s.bytesSnap += int64(len(frame))
	s.stats.Appends++
	s.stats.AppendedBytes += int64(len(frame))
	return nil
}

// --- group commit ----------------------------------------------------------

// enqueueLocked frames s.payload into the group buffer. Caller holds
// s.mu; the memory commit that follows (under the same s.mu hold) keeps
// WAL record order equal to commit order. The record becomes durable
// when a flush covers its sequence — callers wait via waitDurable after
// releasing s.mu.
func (s *Store) enqueueLocked() error {
	frame, err := wire.AppendRecord(s.frame[:0], s.payload)
	if err != nil {
		return err
	}
	s.frame = frame
	g := &s.g
	g.mu.Lock()
	if g.err != nil {
		g.mu.Unlock()
		return g.err
	}
	g.buf = append(g.buf, frame...)
	g.bufRecs++
	g.hiEnq = s.seq
	g.mu.Unlock()
	s.sinceSnap++
	s.bytesSnap += int64(len(frame))
	s.stats.Appends++
	s.stats.AppendedBytes += int64(len(frame))
	return nil
}

// waitDurable blocks until seq is durable: covered by a completed flush
// or by a memtable flush's manifest. The first waiter that finds no
// flush in flight becomes the leader and drains the whole queue with one
// write (and one fsync, if enabled) — that window is the group commit.
func (s *Store) waitDurable(seq uint64) error {
	g := &s.g
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.err != nil {
			return g.err
		}
		if g.hiDur >= seq {
			return nil
		}
		if !g.flushing {
			s.flushLeaderLocked()
			continue
		}
		g.cond.Wait()
	}
}

// flushLeaderLocked drains the group buffer as the flush leader. Caller
// holds g.mu with g.flushing false; on return g.mu is held again, the
// batch outcome is recorded and waiters have been broadcast.
func (s *Store) flushLeaderLocked() {
	g := &s.g
	g.flushing = true
	batch := g.buf
	recs := g.bufRecs
	hi := g.hiEnq
	durSize := g.durSize
	g.buf = nil
	g.bufRecs = 0
	g.mu.Unlock()

	var err error
	var fsynced bool
	if len(batch) > 0 {
		if _, werr := s.wal.Write(batch); werr != nil {
			// Roll the torn batch back out so recovery sees a clean log; if
			// even that fails the bytes stay, but g.err below disables
			// mutations either way.
			//lint:allow errdrop rollback of a torn batch is best-effort; a failed truncate leaves bytes the CRC scan rejects, and g.err disables mutations regardless
			_ = os.Truncate(filepath.Join(s.dir, walName), durSize)
			err = fmt.Errorf("logstore: group append: %w (%v)", ErrReadOnly, werr)
		} else if s.fsync {
			if serr := s.wal.Sync(); serr != nil {
				//lint:allow errdrop rollback of an unsynced batch is best-effort; a failed truncate leaves bytes the CRC scan rejects, and g.err disables mutations regardless
				_ = os.Truncate(filepath.Join(s.dir, walName), durSize)
				err = fmt.Errorf("logstore: group fsync: %w (%v)", ErrReadOnly, serr)
			} else {
				fsynced = true
			}
		}
	}

	g.mu.Lock()
	g.flushing = false
	if err != nil {
		// Writers in this batch (and any batch after it) already committed
		// to memory; the disk cannot follow, so the store goes read-only.
		g.err = err
	} else if len(batch) > 0 {
		g.durSize += int64(len(batch))
		if hi > g.hiDur {
			g.hiDur = hi
		}
		g.stats(recs, fsynced)
	}
	g.cond.Broadcast()
}

// stats records one completed flush. Caller holds g.mu; the counters live
// in gstats so the flusher never needs s.mu.
func (g *groupState) stats(recs int, fsynced bool) {
	g.flushes++
	g.flushedRecords += int64(recs)
	if fsynced {
		g.fsyncs++
	}
}

// drainGroupLocked flushes every enqueued record. Caller holds s.mu (so
// no new records can be enqueued).
func (s *Store) drainGroupLocked() error {
	g := &s.g
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.err != nil {
			return g.err
		}
		if !g.flushing && len(g.buf) == 0 {
			return nil
		}
		if !g.flushing {
			s.flushLeaderLocked()
			continue
		}
		g.cond.Wait()
	}
}

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

// compactIfDueLocked runs an automatic memtable flush. A flush failure is
// counted, not surfaced: the triggering write is already committed and
// durable in the WAL, and the next append retries.
func (s *Store) compactIfDueLocked() {
	countDue := s.compactEvery > 0 && s.sinceSnap >= s.compactEvery
	sizeDue := s.flushBytes > 0 && s.bytesSnap >= s.flushBytes
	if !countDue && !sizeDue {
		return
	}
	if err := s.compactLocked(false); err != nil {
		s.stats.CompactionFailures++
	}
}

// Compact synchronously flushes the memtable to a segment, truncates the
// WAL, and merges every segment into one.
func (s *Store) Compact() error {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked(true)
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

// --- reads (resolved across the tiers) ------------------------------------

// Len returns the number of stored objects.
func (s *Store) Len() int { return int(s.live.Load()) }

// Get returns a copy of the row for id. A segment read failure reads as
// absent without falling through to older segments; it is counted in
// Stats.SegmentReadFailures (the Backend signature has no error slot).
func (s *Store) Get(id string) (*information.Object, bool) {
	obj, live, fromMem, err := s.lookup(id)
	if err != nil || !live {
		return nil, false
	}
	if fromMem {
		return obj.Clone(), true
	}
	return obj, true
}

// Peek is the borrowed point read: a memtable row is lent as stored (it is
// never edited, only replaced), a segment row is decoded for the call.
// Failures read as absent and are counted, as in Get.
func (s *Store) Peek(id string) (*information.Object, bool) {
	obj, live, _, err := s.lookup(id)
	return obj, err == nil && live
}

// noteIterFailure records a merged-view scan cut short by a segment
// error; the Backend read signatures have no error slot, so the counter
// (Stats.IterationFailures) is where the truncation becomes visible.
func (s *Store) noteIterFailure(err error) {
	if err != nil {
		s.iterFailures.Add(1)
	}
}

// Snapshot returns copies of every row matching pred (nil pred = all).
func (s *Store) Snapshot(pred func(*information.Object) bool) []*information.Object {
	var out []*information.Object
	s.noteIterFailure(s.iterate(func(e *flushEntry) (bool, error) {
		obj, err := e.row()
		if err != nil {
			return false, err
		}
		if pred == nil || pred(obj) {
			if e.obj != nil { // the memtable's own row; the result is the caller's
				obj = obj.Clone()
			}
			out = append(out, obj)
		}
		return true, nil
	}))
	return out
}

// Range streams the merged live view — memtable over segments — in
// sorted id order. fn may receive a live memtable row and must honour
// the read-only contract. This is the recovery path a Space rebuilds its
// Merkle digest tree from: segment rows stream through a fixed-size
// buffer, so the rebuild never materialises the store in memory.
func (s *Store) Range(fn func(*information.Object) bool) {
	s.noteIterFailure(s.iterate(func(e *flushEntry) (bool, error) {
		obj, err := e.row()
		if err != nil {
			return false, err
		}
		return fn(obj), nil
	}))
}

// Digest summarises every row's version vector for anti-entropy exchange.
// Of a segment row it decodes the vector and nothing else.
func (s *Store) Digest() map[string]vclock.Version {
	out := make(map[string]vclock.Version, s.Len())
	s.noteIterFailure(s.iterate(func(e *flushEntry) (bool, error) {
		vv, err := e.version()
		if err != nil {
			return false, err
		}
		out[e.id] = vv
		return true, nil
	}))
	return out
}

// Related returns directly related object ids, sorted.
func (s *Store) Related(from string, kind information.RelKind) []string {
	return s.mem.related(from, kind)
}

// Dependents returns ids of objects that relate TO the given id.
func (s *Store) Dependents(to string, kind information.RelKind) []string {
	return s.mem.dependents(to, kind)
}

// Closure returns all ids transitively reachable from id over kind.
func (s *Store) Closure(from string, kind information.RelKind) []string {
	return s.mem.closure(from, kind)
}
