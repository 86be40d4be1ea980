package logstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"mocca/internal/information"
	"mocca/internal/wire"
)

// A segment is one sorted, immutable run of rows on disk — the persistent
// tier beneath the memtable. The file is a sequence of CRC-framed records
// (wire.AppendRecord, the same framing as the WAL, so torn writes and bit
// rot are detected the same way):
//
//	data region:   recSegRow / recSegTomb records, sorted by id
//	meta region:   recSegMeta (count, seq range, key range, index stride)
//	               recSegIdx chunks  (sparse key index: every indexEvery-th
//	               id and its byte offset in the data region)
//	               recSegBloom chunks (bloom filter bits)
//	footer:        recSegFoot, a fixed-size record whose payload is the
//	               meta region's byte offset
//
// Opening a segment reads the footer and the meta region only — O(filter +
// index), never O(rows) — which is what keeps recovery proportional to
// metadata instead of data. A point read consults the in-memory key range,
// then the bloom filter, and only then issues one bounded pread of the
// index chunk that can hold the id.
//
// Segments are immutable once written: compaction replaces them wholesale
// and deletes the inputs. Readers pin a segment with a reference count so
// a file can be unlinked while a concurrent read still holds it open.
const (
	segIndexEvery = 32      // rows per sparse-index entry (pread granularity)
	bloomChunk    = 1 << 15 // bloom bytes per recSegBloom record (< wire string cap)
	idxChunk      = 4096    // index entries per recSegIdx record
)

// segFooterSize is the exact on-disk size of the footer record: framing
// plus a 9-byte payload (type byte + meta offset). Fixed size is what
// lets openSegment find the metadata with a single tail pread.
const segFooterSize = wire.RecordOverhead + 1 + 8

type segIndexEntry struct {
	key string
	off int64 // byte offset of the entry's record in the file
}

type segment struct {
	id      uint64
	level   int
	path    string
	f       *os.File
	count   int    // data records (rows + tombstones)
	seqLo   uint64 // WAL sequence range the segment's rows came from
	seqHi   uint64
	minKey  string
	maxKey  string
	bloom   *bloomFilter
	index   []segIndexEntry
	metaOff int64 // end of the data region

	// Lifecycle: compaction drops a segment while readers may still hold
	// it; the last reference out closes and unlinks the file.
	refMu   sync.Mutex
	refs    int
	dropped bool
}

// acquire pins the segment against concurrent drop.
func (g *segment) acquire() { g.refMu.Lock(); g.refs++; g.refMu.Unlock() }

// release unpins; the last release of a dropped segment closes and
// deletes the file.
func (g *segment) release() {
	g.refMu.Lock()
	g.refs--
	reap := g.dropped && g.refs == 0
	g.refMu.Unlock()
	if reap {
		//lint:allow errdrop reaping a read-only fd of a segment the manifest no longer references; nothing durable depends on the close
		g.f.Close()
		//lint:allow errdrop best-effort unlink of a superseded segment; a leftover file is garbage the next Open ignores
		os.Remove(g.path)
	}
}

// drop marks the segment dead; it is reaped when the last reader leaves.
func (g *segment) drop() {
	g.refMu.Lock()
	g.dropped = true
	reap := g.refs == 0
	g.refMu.Unlock()
	if reap {
		//lint:allow errdrop reaping a read-only fd of a segment the manifest no longer references; nothing durable depends on the close
		g.f.Close()
		//lint:allow errdrop best-effort unlink of a superseded segment; a leftover file is garbage the next Open ignores
		os.Remove(g.path)
	}
}

// closeFile closes the fd without unlinking — store shutdown.
//
//lint:allow errdrop the fd is read-only after finish; there are no buffered writes a failed close could lose
func (g *segment) closeFile() { g.f.Close() }

// segWriter streams sorted entries into a new segment file: data records
// as they arrive, then the meta region and footer on finish. expect sizes
// the bloom filter — an overestimate (a merge before deduplication) only
// lowers the false-positive rate. The file is fsynced before finish
// returns, so a manifest can reference it immediately.
type segWriter struct {
	seg     *segment
	f       *os.File
	w       *bufio.Writer
	off     int64
	lastKey string
	payload []byte
	frame   []byte
}

func newSegWriter(path string, id uint64, level int, seqLo, seqHi uint64, expect int) (*segWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &segWriter{
		seg: &segment{
			id: id, level: level, path: path,
			seqLo: seqLo, seqHi: seqHi,
			bloom: newBloomFilter(expect),
		},
		f: f,
		w: bufio.NewWriterSize(f, 1<<16),
	}, nil
}

// emit frames w.payload and writes it.
func (w *segWriter) emit() error {
	frame, err := wire.AppendRecord(w.frame[:0], w.payload)
	if err != nil {
		return err
	}
	w.frame = frame
	if _, err := w.w.Write(frame); err != nil {
		return err
	}
	w.off += int64(len(frame))
	return nil
}

// add appends one entry; entries must arrive in strictly ascending id
// order.
func (w *segWriter) add(e flushEntry) error {
	seg := w.seg
	if seg.count == 0 {
		seg.minKey = e.id
	}
	seg.maxKey = e.id
	if seg.count%segIndexEvery == 0 {
		seg.index = append(seg.index, segIndexEntry{key: e.id, off: w.off})
	}
	seg.bloom.add(e.id)
	seg.count++
	w.lastKey = e.id
	switch {
	case e.rec != nil:
		// A row read from a segment moves as the bytes it was read as: the
		// row codec is canonical, so decoding and re-encoding would write
		// the same record.
		w.payload = append(w.payload[:0], e.rec...)
	case e.obj != nil:
		w.payload = append(w.payload[:0], recSegRow)
		w.payload = information.AppendObject(w.payload, e.obj)
	default:
		w.payload = append(w.payload[:0], recSegTomb)
		w.payload = wire.AppendString(w.payload, e.id)
	}
	return w.emit()
}

// abort discards the partial file.
func (w *segWriter) abort() {
	//lint:allow errdrop abort is already the failure path; the partial file was never referenced by a manifest
	w.f.Close()
	//lint:allow errdrop best-effort unlink of an aborted partial segment; a leftover file is garbage the next Open ignores
	os.Remove(w.seg.path)
}

// finish writes the meta region and footer, fsyncs, and reopens the
// completed segment for reading.
func (w *segWriter) finish() (*segment, error) {
	seg := w.seg
	seg.metaOff = w.off

	w.payload = append(w.payload[:0], recSegMeta)
	w.payload = wire.AppendUint64(w.payload, seg.id)
	w.payload = wire.AppendUint64(w.payload, uint64(seg.count))
	w.payload = wire.AppendUint64(w.payload, seg.seqLo)
	w.payload = wire.AppendUint64(w.payload, seg.seqHi)
	w.payload = wire.AppendUint64(w.payload, segIndexEvery)
	w.payload = wire.AppendString(w.payload, seg.minKey)
	w.payload = wire.AppendString(w.payload, seg.maxKey)
	if err := w.emit(); err != nil {
		w.abort()
		return nil, err
	}
	for start := 0; start < len(seg.index); start += idxChunk {
		end := min(start+idxChunk, len(seg.index))
		w.payload = append(w.payload[:0], recSegIdx)
		w.payload = wire.AppendUint64(w.payload, uint64(end-start))
		for _, ent := range seg.index[start:end] {
			w.payload = wire.AppendString(w.payload, ent.key)
			w.payload = wire.AppendUint64(w.payload, uint64(ent.off))
		}
		if err := w.emit(); err != nil {
			w.abort()
			return nil, err
		}
	}
	bits := seg.bloom.bits
	for start := 0; start < len(bits); start += bloomChunk {
		end := min(start+bloomChunk, len(bits))
		w.payload = append(w.payload[:0], recSegBloom)
		w.payload = wire.AppendUint64(w.payload, uint64(len(bits)))
		w.payload = wire.AppendUint64(w.payload, uint64(start))
		w.payload = wire.AppendString(w.payload, string(bits[start:end]))
		if err := w.emit(); err != nil {
			w.abort()
			return nil, err
		}
	}
	w.payload = append(w.payload[:0], recSegFoot)
	w.payload = wire.AppendUint64(w.payload, uint64(seg.metaOff))
	if err := w.emit(); err != nil {
		w.abort()
		return nil, err
	}

	if err := w.w.Flush(); err != nil {
		w.abort()
		return nil, err
	}
	if err := w.f.Sync(); err != nil {
		w.abort()
		return nil, err
	}
	if err := w.f.Close(); err != nil {
		//lint:allow errdrop best-effort unlink after a failed close that is already being returned; the segment was never installed
		os.Remove(seg.path)
		return nil, err
	}
	r, err := os.Open(seg.path)
	if err != nil {
		return nil, err
	}
	seg.f = r
	return seg, nil
}

// openSegment opens an existing segment file reading only its footer and
// meta region — the recovery fast path.
func openSegment(path string, id uint64, level int) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*segment, error) {
		//lint:allow errdrop cleanup of a read-only fd on the open-failure path; the wrapped err carries the real failure
		f.Close()
		return nil, fmt.Errorf("segment %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	if info.Size() < segFooterSize {
		return fail(ErrCorrupt)
	}
	foot := make([]byte, segFooterSize)
	if _, err := f.ReadAt(foot, info.Size()-segFooterSize); err != nil {
		return fail(err)
	}
	payload, _, err := wire.NextRecord(foot)
	if err != nil {
		return fail(err)
	}
	if len(payload) < 1 || payload[0] != recSegFoot {
		return fail(ErrCorrupt)
	}
	metaOff, _, err := wire.ConsumeUint64(payload[1:])
	if err != nil {
		return fail(err)
	}
	if int64(metaOff) > info.Size()-segFooterSize {
		return fail(ErrCorrupt)
	}
	meta := make([]byte, info.Size()-segFooterSize-int64(metaOff))
	if _, err := f.ReadAt(meta, int64(metaOff)); err != nil {
		return fail(err)
	}

	seg := &segment{id: id, level: level, path: path, f: f, metaOff: int64(metaOff)}
	rest := meta
	var bloomTotal uint64
	for len(rest) > 0 {
		payload, next, err := wire.NextRecord(rest)
		if err != nil {
			return fail(err)
		}
		rest = next
		if len(payload) < 1 {
			return fail(ErrCorrupt)
		}
		p := payload[1:]
		switch payload[0] {
		case recSegMeta:
			var segID, count, indexEvery uint64
			if segID, p, err = wire.ConsumeUint64(p); err != nil {
				return fail(err)
			}
			if segID != id {
				return fail(fmt.Errorf("%w: segment id %d, manifest says %d", ErrCorrupt, segID, id))
			}
			if count, p, err = wire.ConsumeUint64(p); err != nil {
				return fail(err)
			}
			if seg.seqLo, p, err = wire.ConsumeUint64(p); err != nil {
				return fail(err)
			}
			if seg.seqHi, p, err = wire.ConsumeUint64(p); err != nil {
				return fail(err)
			}
			if indexEvery, p, err = wire.ConsumeUint64(p); err != nil {
				return fail(err)
			}
			if indexEvery != segIndexEvery {
				return fail(fmt.Errorf("%w: index stride %d", ErrCorrupt, indexEvery))
			}
			if seg.minKey, p, err = wire.ConsumeString(p); err != nil {
				return fail(err)
			}
			if seg.maxKey, _, err = wire.ConsumeString(p); err != nil {
				return fail(err)
			}
			seg.count = int(count)
		case recSegIdx:
			var n uint64
			if n, p, err = wire.ConsumeUint64(p); err != nil {
				return fail(err)
			}
			for i := uint64(0); i < n; i++ {
				var key string
				var off uint64
				if key, p, err = wire.ConsumeString(p); err != nil {
					return fail(err)
				}
				if off, p, err = wire.ConsumeUint64(p); err != nil {
					return fail(err)
				}
				seg.index = append(seg.index, segIndexEntry{key: key, off: int64(off)})
			}
		case recSegBloom:
			var off uint64
			var chunk string
			if bloomTotal, p, err = wire.ConsumeUint64(p); err != nil {
				return fail(err)
			}
			if off, p, err = wire.ConsumeUint64(p); err != nil {
				return fail(err)
			}
			if chunk, _, err = wire.ConsumeString(p); err != nil {
				return fail(err)
			}
			if seg.bloom == nil {
				seg.bloom = &bloomFilter{bits: make([]byte, bloomTotal), k: bloomHashes}
			}
			if off+uint64(len(chunk)) > uint64(len(seg.bloom.bits)) {
				return fail(ErrCorrupt)
			}
			copy(seg.bloom.bits[off:], chunk)
		default:
			return fail(fmt.Errorf("%w: meta record type %d", ErrCorrupt, payload[0]))
		}
	}
	if seg.bloom == nil {
		seg.bloom = newBloomFilter(1)
	}
	return seg, nil
}

// segProbe is the outcome of a point read against one segment.
type segProbe int

const (
	probeSkipRange segProbe = iota // id outside the segment's key range
	probeSkipBloom                 // bloom filter proved the id absent
	probeMiss                      // disk touched, id not there (false positive)
	probeRow                       // row found
	probeTomb                      // tombstone found
)

// chunkBufs recycles the index-chunk buffers of point reads.
var chunkBufs = sync.Pool{New: func() any { return new([]byte) }}

// get answers a point read. Only probeRow returns an object. The key
// range and bloom checks are pure memory; only past both does the
// segment issue a single bounded pread of one index chunk.
func (g *segment) get(id string) (*information.Object, segProbe, error) {
	if g.count == 0 || id < g.minKey || id > g.maxKey {
		return nil, probeSkipRange, nil
	}
	if !g.bloom.may(id) {
		return nil, probeSkipBloom, nil
	}
	// Last index entry with key <= id bounds the only chunk that can hold it.
	j := sort.Search(len(g.index), func(i int) bool { return g.index[i].key > id }) - 1
	if j < 0 {
		return nil, probeMiss, nil
	}
	start := g.index[j].off
	end := g.metaOff
	if j+1 < len(g.index) {
		end = g.index[j+1].off
	}
	// The chunk is read into a pooled buffer and handed back on return: ids
	// are compared where they lie, and DecodeObject copies out the one row
	// it returns, so nothing returned aliases the buffer.
	bufp := chunkBufs.Get().(*[]byte)
	defer chunkBufs.Put(bufp)
	if int64(cap(*bufp)) < end-start {
		*bufp = make([]byte, end-start)
	}
	rest := (*bufp)[:end-start]
	if _, err := g.f.ReadAt(rest, start); err != nil {
		return nil, probeMiss, err
	}
	for len(rest) > 0 {
		payload, next, err := wire.NextRecord(rest)
		if err != nil {
			return nil, probeMiss, err
		}
		rest = next
		if len(payload) < 1 || (payload[0] != recSegRow && payload[0] != recSegTomb) {
			return nil, probeMiss, ErrCorrupt
		}
		// A row passed over is read as far as its id and no further.
		rowID, err := leadingID(payload[1:])
		if err != nil {
			return nil, probeMiss, err
		}
		switch {
		case string(rowID) < id: // passed over
		case string(rowID) > id:
			return nil, probeMiss, nil
		case payload[0] == recSegTomb:
			return nil, probeTomb, nil
		default:
			obj, _, err := information.DecodeObject(payload[1:])
			if err != nil {
				return nil, probeMiss, err
			}
			return obj, probeRow, nil
		}
	}
	return nil, probeMiss, nil
}

// leadingID is the length-prefixed id a row or tombstone payload starts
// with, as a sub-slice of p, under wire.ConsumeString's length checks.
func leadingID(p []byte) ([]byte, error) {
	if len(p) < 4 {
		return nil, wire.ErrTruncated
	}
	n := uint64(binary.BigEndian.Uint32(p))
	if n >= wire.MaxStringLen {
		return nil, fmt.Errorf("%w: %d-byte string", wire.ErrOversize, n)
	}
	if uint64(len(p)) < 4+n {
		return nil, wire.ErrTruncated
	}
	return p[4 : 4+n], nil
}

// iter returns a streaming iterator over the segment's data region in
// sorted id order, reading through a small buffer — never the whole file.
func (g *segment) iter() *segIter {
	return &segIter{
		r:       bufio.NewReaderSize(io.NewSectionReader(g.f, 0, g.metaOff), 1<<16),
		remain:  g.count,
		scratch: make([]byte, 0, 1<<10),
	}
}

// segIter yields flushEntry values: rows as raw records, tombstones bare.
type segIter struct {
	r       *bufio.Reader
	remain  int
	scratch []byte
}

// next returns the next entry, or ok == false at the end of the data
// region. Every record passes its CRC and every row payload is walked end
// to end, so a record that frames but does not parse is refused here,
// whether or not anyone would have decoded it. Such failures end the
// iteration with err set — segments are written and fsynced before being
// referenced, so this is bit rot, not a torn tail, and the caller surfaces
// it.
func (it *segIter) next() (flushEntry, bool, error) {
	if it.remain == 0 {
		return flushEntry{}, false, nil
	}
	payload, scratch, err := wire.ReadRecord(it.r, it.scratch)
	it.scratch = scratch
	if err != nil {
		if errors.Is(err, io.EOF) {
			// remain > 0 here (the guard above returned otherwise), so the
			// data region ended before yielding every record the metadata
			// promised: the file was truncated at a record boundary. That
			// is corruption, not a clean end — reporting it as one would
			// silently drop the missing rows from merged iteration and
			// from compaction output.
			return flushEntry{}, false, fmt.Errorf("%w: segment truncated mid-data", ErrCorrupt)
		}
		return flushEntry{}, false, err
	}
	it.remain--
	if len(payload) < 1 {
		return flushEntry{}, false, ErrCorrupt
	}
	switch payload[0] {
	case recSegRow:
		id, vv, _, err := information.ScanObject(payload[1:])
		if err != nil {
			return flushEntry{}, false, err
		}
		return flushEntry{id: string(id), rec: payload, vv: vv}, true, nil
	case recSegTomb:
		id, _, err := wire.ConsumeString(payload[1:])
		if err != nil {
			return flushEntry{}, false, err
		}
		return flushEntry{id: id}, true, nil
	default:
		return flushEntry{}, false, ErrCorrupt
	}
}
