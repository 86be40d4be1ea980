// Package logstore is the durable engineering realisation of the
// information store: an information.Backend whose replica survives a site
// crash. It is a tiered, log-structured store:
//
//   - wal.log — an append-only write-ahead log. Every Exec that stores a
//     row appends one CRC-framed record (wire.AppendRecord)
//     carrying a monotonic sequence number and the full post-state of the
//     mutation — object rows round-trip with their version vectors and
//     writer-site metadata intact, so a recovered replica re-enters
//     anti-entropy with correct digests.
//   - memtable — the rows written since the last flush.
//     Reads consult it first.
//   - seg-*.seg — sorted, immutable segment files. When the memtable
//     grows past the flush threshold it streams into a new level-0
//     segment; a background compactor merges over-full levels into the
//     next level, dropping superseded row versions.
//     Each segment carries a bloom filter and key-range metadata, so a
//     point read touches at most the one or two segments that can hold
//     the id and a miss is usually answered without touching disk at all.
//   - snapshot.snap — the manifest, an incremental snapshot: the live
//     segment list and the covered WAL sequence, written to a temporary
//     file, fsynced, and atomically renamed.
//     After a successful flush the WAL is truncated.
//   - schemas.log — the definitions of the schemas the store's rows name
//     by content id (schemas.go), read first, so the store opens before
//     the process's applications register their schemas.
//
// Recovery (Open) learns the schema file's definitions, loads the
// manifest, opens each segment's footer and metadata (never its rows), and
// replays the WAL tail, skipping records the manifest already covers —
// O(manifest + WAL tail), not O(data). A
// store written before rows became compact holds them in format 1
// (format1.go), and one written before rows named their schema by id in
// format 2 (format2.go): replay reads their WAL records, and Open rewrites
// their segments in the current format before anything reads them. A row
// is never removed; a store written while one could be holds removals in
// its WAL and tombstones in its segments, and Open folds those away too
// (legacy.go), so nothing past Open meets either.
// A torn or corrupt record ends the replay: everything before it is
// intact (the CRC guarantees it), the garbage suffix is truncated away,
// and the store resumes appending from the last good record — the
// standard WAL discipline. A store that holds what this one no longer
// understands — relationship edges, from before the store kept rows only
// — is refused with ErrRetiredRecord and left untouched, and so is a store
// whose rows name a schema id that neither this process nor the store's
// schema file (schemas.go) defines, with information.ErrUnknownSchema.
//
// Rows follow information.Store's rule — a stored row never changes, it is
// only replaced: a put swaps the memtable's pointer, a flush drops the map,
// nothing edits a row. So memtable rows are lent as stored (Peek, Range,
// the Exec callback's argument, Exec's result), segment rows are decoded
// for the call that asked, and Get returns a copy.
// Segment reads decode what their caller needs and no more: the cross-tier
// merge compares ids over raw records (each still CRC-checked and walked
// end to end) and decodes only the winner of an id — whole for Range, its
// vector alone for Digest, not at all for compaction, which
// copies the record's bytes. A point read compares the ids of the rows it
// passes over where they lie in its chunk, reading each as far as its id,
// and decodes the one it returns. Records are read through a scratch buffer
// that holds their header too, and readers pin the copy-on-write segment
// list as it stands, so a scan allocates per row only what it hands out.
//
// The one mutation, Exec, follows one rule, under the store's own mutex:
// validate, log, apply. Nothing is appended that the store would
// refuse, and nothing is applied that is not on the log, so a write that
// cannot be made durable changes nothing, in memory or on disk, and the
// WAL's record order always equals the in-memory commit order.
package logstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"mocca/internal/information"
	"mocca/internal/observe"
	"mocca/internal/vclock"
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

// ErrReadOnly reports a mutation after the store failed: a WAL write or
// fsync failed and the truncate that takes the frame back off the log
// failed too — the one case where the rule "a write that cannot be made
// durable changes nothing" cannot be kept on disk — so further appends
// would land behind bytes the next recovery discards. Reads keep working;
// the disk state up to the last intact record is recoverable.
var ErrReadOnly = errors.New("logstore: store failed, mutations disabled")

// Stats counts store activity, including what recovery found.
type Stats struct {
	Appends            int64 `metric:"appends"`        // WAL records appended this process
	AppendedBytes      int64 `metric:"appended_bytes"` // WAL bytes appended this process
	Compactions        int64 `metric:"compactions"`    // flushes + level merges completed
	CompactionFailures int64 // failed flushes/merges (writes stay durable in the WAL)
	Merges             int64 // level merges completed (subset of Compactions)
	Segments           int   `metric:"segments,gauge"` // live segment files right now (gauge)

	// Fsyncs counts every WAL fsync: one per append under WithFsync, and
	// the ones Sync and Close issue.
	Fsyncs int64 `metric:"fsyncs"`

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
	// decode error. Exec surfaces the error to the caller; Get's
	// signature has no error slot, so this counter is where those
	// failures become visible.
	SegmentReadFailures int64

	// IterationFailures counts merged-view scans (Range, Digest) cut
	// short by a segment I/O or decode error.
	// Those Backend signatures have no error slot either — the caller
	// sees a truncated view, so the failure must at least be visible
	// here (a silently partial digest would ship an incomplete
	// anti-entropy summary and a partial Range would rebuild a wrong
	// Merkle tree without anyone knowing).
	IterationFailures int64

	RecoveredObjects int   // rows live after Open (manifest + replay)
	UpgradedSegments int   // segments an earlier build wrote that Open folded into the current format
	ReplayedRecords  int   // WAL records applied by Open
	SkippedRecords   int   // WAL records the manifest already covered
	DiscardedBytes   int64 // corrupt/torn WAL suffix truncated by Open
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

// Store is the disk-backed information.Backend. Reads resolve across the
// tiers (memtable, then segments newest-first); mutations append to the
// WAL and commit to the memtable before returning.
type Store struct {
	mem          *memtable
	dir          string
	fsync        bool
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
	walSize     int64  // bytes of intact records on disk
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

	// The schema file (schemas.go): the ids it defines, its handle, opened
	// with the first definition it takes, and its intact length.
	schemaIDs   map[uint32]bool
	schemaFile  *os.File
	schemasSize int64

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
		schemaIDs:    map[uint32]bool{},
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
	if err := s.recover(); err != nil {
		for _, g := range s.segs {
			g.closeFile()
		}
		if s.schemaFile != nil {
			//lint:allow errdrop the store is refused with err; the handle was write-only and every record on it was synced or rolled back
			s.schemaFile.Close()
		}
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("logstore: %w", err)
	}
	s.wal = wal
	s.stats.RecoveredObjects = int(s.live.Load())
	if s.bgMerge {
		s.mergeWG.Add(1)
		go s.mergerLoop()
		s.kickMerger() // a crash may have left a level over-full
	}
	return s, nil
}

// recover learns the schema file's definitions, loads the manifest and its
// segments' metadata, reads the WAL, and then either folds a store an
// earlier build wrote into the current format, WAL tail and all, or
// replays the WAL tail — in that order, so the rows the store names by
// schema id decode, a store the WAL refuses is left as it was found, and
// replay's probes read segments in the current format only.
func (s *Store) recover() error {
	good, size, err := s.readSchemas()
	if err != nil {
		return err
	}
	if err := s.loadManifestState(); err != nil {
		return err
	}
	tail, err := s.readWAL()
	if err != nil {
		return err
	}
	if good < size {
		if err := os.Truncate(filepath.Join(s.dir, schemasName), good); err != nil {
			return fmt.Errorf("logstore: truncate torn schema record: %w", err)
		}
	}
	s.schemasSize = good
	if s.mustFold(tail) {
		return s.fold(tail)
	}
	s.live.Store(int64(s.liveCovered))
	return s.replayWAL(tail)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the counters, folding in the probe counters
// and the live segment gauge.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
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

// Close closes the WAL (syncing it first under WithFsync) and stops the
// background compactor. Every acknowledged write is already on the log, so
// there is nothing to drain. Reads keep working across the tiers (segment
// file handles stay open); further mutations fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if s.fsync {
		err = s.syncLocked()
	}
	if cerr := s.wal.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if s.schemaFile != nil {
		if cerr := s.schemaFile.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}
	s.mu.Unlock()
	close(s.closing)
	s.mergeWG.Wait()
	return err
}

// --- mutations ------------------------------------------------------------

// Exec runs fn against the row for id under the backend's write
// exclusion. fn is lent the stored row — the memtable's own, or a fresh
// decode of a segment's — read-only: a mutation takes effect only by
// returning a new row to store, which fn gives up and Exec returns, again
// read-only. If fn stores a row, its full post-state is on the log before
// the memtable holds it and before Exec returns success; a row that cannot
// be made durable (one the codec cannot round-trip, a failed append or
// fsync) fails the call and changes nothing.
func (s *Store) Exec(id string, fn func(cur *information.Object) (*information.Object, error)) (stored *information.Object, err error) {
	// When the id carries a trace tag (the write-path layers above tag
	// objects as traffic enters the site), the durable commit is a span of
	// that trace.
	if s.tracer.On() {
		if parent, ok := s.objects.Lookup(id); ok {
			span := s.tracer.StartChild("wal.commit", s.site, parent)
			span.SetAttr("object", id)
			defer func() {
				switch {
				case err != nil:
					span.EndStatus("error")
				case stored == nil:
					span.EndStatus("noop")
				default:
					span.End()
				}
			}()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err = s.writableLocked(); err != nil {
		return nil, err
	}
	cur, _, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	next, err := fn(cur)
	if err != nil || next == nil {
		return nil, err
	}
	if err = validateDurable(next); err != nil {
		return nil, err
	}
	rec := s.recordLocked(recExec)
	payload := information.AppendObject(rec, next)
	if err = s.defineRowLocked(payload[len(rec):]); err != nil {
		return nil, err
	}
	if err = s.appendLocked(payload); err != nil {
		return nil, err
	}
	s.mem.put(next)
	if cur == nil {
		s.live.Add(1)
	}
	s.compactIfDueLocked()
	return next, nil
}

// SetTelemetry attaches the deployment telemetry plane: Exec emits a
// wal.commit span under the originating write's trace (looked up by
// object id in the shared tag table) covering the wait for the store
// mutex and the append. Must be called before the store sees traffic; nil
// disables tracing.
func (s *Store) SetTelemetry(tel *observe.Telemetry, site string) {
	if tel == nil {
		return
	}
	s.tracer = tel.Tracer
	s.objects = tel.Objects
	s.site = site
}

// writableLocked reports whether mutations are admitted. Caller holds
// s.mu.
func (s *Store) writableLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.broken {
		return ErrReadOnly
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

// --- reads (resolved across the tiers) ------------------------------------

// Len returns the number of stored objects.
func (s *Store) Len() int { return int(s.live.Load()) }

// Get returns a copy of the row for id. A segment read failure reads as
// absent without falling through to older segments; it is counted in
// Stats.SegmentReadFailures (the Backend signature has no error slot).
func (s *Store) Get(id string) (*information.Object, bool) {
	obj, fromMem, err := s.lookup(id)
	if err != nil || obj == nil {
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
	obj, _, err := s.lookup(id)
	return obj, err == nil && obj != nil
}

// noteIterFailure records a merged-view scan cut short by a segment
// error; the Backend read signatures have no error slot, so the counter
// (Stats.IterationFailures) is where the truncation becomes visible.
func (s *Store) noteIterFailure(err error) {
	if err != nil {
		s.iterFailures.Add(1)
	}
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
