package logstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mocca/internal/information"
	"mocca/internal/vclock"
)

// TestFlushEvictsMemtable: past the flush threshold, rows move from the
// memtable into a level-0 segment file and stay readable from disk.
func TestFlushEvictsMemtable(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithCompactEvery(10), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 25; i++ {
		put(t, st, fmt.Sprintf("row-%03d", i), vclock.NewVersion("gmd"), "gmd", nil)
	}
	if got := st.mem.pending(); got != 5 {
		t.Fatalf("memtable holds %d rows after flushes, want the 5 unflushed", got)
	}
	stats := st.Stats()
	if stats.Segments == 0 {
		t.Fatalf("no segment files after %d flushes: %+v", stats.Compactions, stats)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) != stats.Segments {
		t.Fatalf("stats report %d segments, disk has %d", stats.Segments, len(segs))
	}
	if st.Len() != 25 {
		t.Fatalf("Len = %d, want 25", st.Len())
	}
	// Every row — flushed or not — must resolve.
	for i := 0; i < 25; i++ {
		id := fmt.Sprintf("row-%03d", i)
		if _, ok := st.Get(id); !ok {
			t.Fatalf("row %s unreadable after flush", id)
		}
	}
}

// TestBloomFiltersKeepMissesInMemory: a point read for an absent id is
// answered by the key range or the bloom filter, almost never by disk.
func TestBloomFiltersKeepMissesInMemory(t *testing.T) {
	st, err := Open(t.TempDir(), WithCompactEvery(0), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 500; i++ {
		put(t, st, fmt.Sprintf("row-%04d", i*2), vclock.NewVersion("gmd"), "gmd", nil)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.mem.pending() != 0 {
		t.Fatalf("memtable not empty after Compact")
	}

	before := st.Stats()
	const misses = 200
	for i := 0; i < misses; i++ {
		// Odd suffixes sit inside the segment's key range but were never
		// written, so only the bloom filter can keep them off disk.
		if _, ok := st.Get(fmt.Sprintf("row-%04d", i*2+1)); ok {
			t.Fatalf("phantom row found")
		}
	}
	if _, ok := st.Get("zzz-out-of-range"); ok {
		t.Fatalf("phantom row found")
	}
	after := st.Stats()

	if got := after.KeyRangeFiltered - before.KeyRangeFiltered; got < 1 {
		t.Fatalf("out-of-range miss not filtered by key range (delta %d)", got)
	}
	filtered := after.BloomFiltered - before.BloomFiltered
	probed := after.SegmentProbes - before.SegmentProbes
	if filtered < misses*9/10 {
		t.Fatalf("bloom filtered only %d of %d in-range misses", filtered, misses)
	}
	// 10 bits/key puts the false-positive rate near 1%; 10% is a generous
	// ceiling that still proves misses are not touching disk.
	if probed > misses/10 {
		t.Fatalf("%d of %d misses touched segment files", probed, misses)
	}
	if after.BloomFalsePositives-before.BloomFalsePositives != probed {
		t.Fatalf("probe/false-positive counters disagree: %d probes, %d fps",
			probed, after.BloomFalsePositives-before.BloomFalsePositives)
	}
}

// TestCompactMergesLevels: explicit Compact folds every segment into one
// without changing the merged view.
func TestCompactMergesLevels(t *testing.T) {
	st, err := Open(t.TempDir(), WithCompactEvery(5), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 30; i++ {
		put(t, st, fmt.Sprintf("row-%03d", i), vclock.NewVersion("gmd"), "gmd", nil)
	}
	if got := st.Stats().Segments; got < 3 {
		t.Fatalf("want several level-0 segments before the merge, got %d", got)
	}
	want := st.Digest()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Segments != 1 {
		t.Fatalf("Compact left %d segments, want 1", stats.Segments)
	}
	if stats.Merges == 0 {
		t.Fatalf("no merge counted: %+v", stats)
	}
	if got := st.Digest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("digest changed across merge")
	}
}

// TestSupersededVersionDroppedOnMerge: updating a row already flushed to
// a segment leaves two on-disk versions; the merge keeps only the newest.
func TestSupersededVersionDroppedOnMerge(t *testing.T) {
	st, err := Open(t.TempDir(), WithCompactEvery(0), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	put(t, st, "doc", vclock.NewVersion("gmd"), "gmd", map[string]string{"rev": "1"})
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	// The update's Exec callback must see the segment-resident version.
	if _, err := st.Exec("doc", func(cur *information.Object) (*information.Object, error) {
		if cur == nil || cur.Fields["rev"] != "1" {
			t.Fatalf("Exec callback got %+v, want segment row rev 1", cur)
		}
		next := cur.Clone()
		next.Fields["rev"] = "2"
		next.VV = next.VV.Clone()
		next.VV.Tick("gmd")
		next.Version = next.VV.Sum()
		return next, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil { // flush v2, then merge both segments
		t.Fatal(err)
	}
	if got := st.Stats().Segments; got != 1 {
		t.Fatalf("%d segments after merge, want 1", got)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	obj, ok := st.Get("doc")
	if !ok || obj.Fields["rev"] != "2" {
		t.Fatalf("merged row = %+v, want rev 2", obj)
	}
}

// TestTombstoneMasksSegmentRow: removing a row whose only copy lives in a
// segment must hide it immediately, across a flush, and across recovery.
func TestTombstoneMasksSegmentRow(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithCompactEvery(0), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	put(t, st, "keep", vclock.NewVersion("gmd"), "gmd", nil)
	put(t, st, "gone", vclock.NewVersion("gmd"), "gmd", nil)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	removed, err := st.Remove("gone")
	if err != nil || removed == nil {
		t.Fatalf("Remove = %v, %v", removed, err)
	}
	if _, ok := st.Get("gone"); ok {
		t.Fatalf("removed row still visible over its segment copy")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery replays the recRemove over the manifest state.
	st2, err := Open(dir, WithCompactEvery(0), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, ok := st2.Get("gone"); ok {
		t.Fatalf("removed row resurrected by recovery")
	}
	if st2.Len() != 1 {
		t.Fatalf("recovered Len = %d, want 1", st2.Len())
	}
	// Merging everything (tombstone + masked row are the whole store)
	// drops both for good.
	if err := st2.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get("gone"); ok {
		t.Fatalf("removed row resurrected by compaction")
	}
	if st2.Len() != 1 {
		t.Fatalf("Len after merge = %d, want 1", st2.Len())
	}
}

// TestBackgroundMergeConverges: with merges enabled, a burst of flushes
// settles below the fanout without data loss.
func TestBackgroundMergeConverges(t *testing.T) {
	st, err := Open(t.TempDir(), WithCompactEvery(4), WithMergeFanout(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 64; i++ {
		put(t, st, fmt.Sprintf("row-%03d", i), vclock.NewVersion("gmd"), "gmd", nil)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Converged: no level holds fanout segments (at fanout 2, that
		// means at most one segment per level; 64 rows / 4 per flush = 16
		// flushes collapse into a handful of levels).
		if st.Stats().Segments <= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background merge never converged: %d segments", st.Stats().Segments)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Len() != 64 {
		t.Fatalf("Len = %d, want 64", st.Len())
	}
	for i := 0; i < 64; i++ {
		if _, ok := st.Get(fmt.Sprintf("row-%03d", i)); !ok {
			t.Fatalf("row %d lost during merges", i)
		}
	}
}

// TestRecoveryIgnoresOrphanSegments: a crash between writing a segment
// and renaming the manifest leaves an unreferenced segment file; Open
// must delete it and recover from the referenced state alone.
func TestRecoveryIgnoresOrphanSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithCompactEvery(0), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	ids := seedStore(t, st, 8, 77)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	want := st.Digest()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	orphan := filepath.Join(dir, "seg-99999999.seg")
	if err := os.WriteFile(orphan, []byte("torn segment from a crashed flush"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapTmpName), []byte("torn manifest"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, WithCompactEvery(0), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan segment survived recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, snapTmpName)); !os.IsNotExist(err) {
		t.Fatalf("temporary manifest survived recovery")
	}
	if got := st2.Digest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("digest diverged after orphan cleanup")
	}
	if st2.Len() != len(ids) {
		t.Fatalf("Len = %d, want %d", st2.Len(), len(ids))
	}
}

// TestRecoveryIsMetadataBound: reopening a fully-flushed store must not
// read segment data regions — replay applies zero records and the live
// count comes from the manifest header.
func TestRecoveryIsMetadataBound(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithCompactEvery(0), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st, 50, 13)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	want := st.Digest()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, WithCompactEvery(0), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stats := st2.Stats()
	if stats.ReplayedRecords != 0 {
		t.Fatalf("replayed %d WAL records over a covering manifest", stats.ReplayedRecords)
	}
	if stats.RecoveredObjects != 50 {
		t.Fatalf("RecoveredObjects = %d, want 50 (from manifest header)", stats.RecoveredObjects)
	}
	// The digest rebuild streams the segments — same bytes as before.
	if got := st2.Digest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("digest diverged across metadata-bound recovery")
	}
}

// TestTruncatedSegmentSurfacesCorrupt: a segment file cut exactly at a
// record boundary (external truncation / bit rot) must end iteration with
// ErrCorrupt — a clean end would silently drop the missing rows from
// Range/Digest/Snapshot and from compaction output.
func TestTruncatedSegmentSurfacesCorrupt(t *testing.T) {
	st, err := Open(t.TempDir(), WithCompactEvery(0), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 2*segIndexEvery; i++ {
		put(t, st, fmt.Sprintf("row-%03d", i), vclock.NewVersion("gmd"), "gmd", nil)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	segs := st.acquireSegs()
	defer releaseSegs(segs)
	if len(segs) != 1 {
		t.Fatalf("%d segments after Compact, want 1", len(segs))
	}
	g := segs[0]
	if len(g.index) < 2 {
		t.Fatalf("segment index has %d entries, want >= 2", len(g.index))
	}
	// g.index[1].off is the byte offset of row segIndexEvery — an exact
	// record boundary inside the data region.
	if err := os.Truncate(g.path, g.index[1].off); err != nil {
		t.Fatal(err)
	}
	it := g.iter()
	var iterErr error
	rows := 0
	for {
		_, ok, err := it.next()
		if err != nil {
			iterErr = err
			break
		}
		if !ok {
			break
		}
		rows++
	}
	if !errors.Is(iterErr, ErrCorrupt) {
		t.Fatalf("truncated segment ended cleanly after %d/%d rows (err = %v), want ErrCorrupt", rows, g.count, iterErr)
	}
}

// TestSegmentReadErrorAbortsLookup: bit rot in a segment's data region
// must abort the newest-first scan and surface as an Exec/Remove error —
// not decode as a miss that hands Exec a nil row (which would recreate it
// with a fresh version vector) or fall through to an older segment.
func TestSegmentReadErrorAbortsLookup(t *testing.T) {
	st, err := Open(t.TempDir(), WithCompactEvery(0), WithBackgroundMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 8; i++ {
		put(t, st, fmt.Sprintf("row-%03d", i), vclock.NewVersion("gmd"), "gmd", nil)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	segs := st.acquireSegs()
	path := segs[0].path
	releaseSegs(segs)
	// Rot the first data record's framing in place.
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := st.Exec("row-000", func(cur *information.Object) (*information.Object, error) {
		t.Error("Exec callback ran against a corrupt segment probe")
		return nil, nil
	}); err == nil {
		t.Fatal("Exec over a corrupt segment chunk succeeded")
	}
	if _, err := st.Remove("row-000"); err == nil {
		t.Fatal("Remove over a corrupt segment chunk succeeded")
	}
	if _, ok := st.Get("row-000"); ok {
		t.Fatal("Get returned a row decoded from a corrupt chunk")
	}
	if got := st.Stats().SegmentReadFailures; got == 0 {
		t.Fatal("segment read failures not counted in Stats")
	}
}
