package logstore

import (
	"strings"
	"testing"

	"mocca/internal/vclock"
)

// TestFlushBytesTriggersBeforeCompactEvery: a few huge rows must cross
// the size trigger and flush the memtable long before the record-count
// trigger would fire.
func TestFlushBytesTriggersBeforeCompactEvery(t *testing.T) {
	st, err := Open(t.TempDir(), WithCompactEvery(1000), WithFlushBytes(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	huge := strings.Repeat("x", 32<<10)
	for i, id := range []string{"big-a", "big-b", "big-c"} {
		put(t, st, id, vclock.NewVersion("gmd"), "gmd", map[string]string{
			"title": id, "body": huge})
		if i == 0 && st.Stats().Compactions != 0 {
			t.Fatal("one 32KiB row already flushed — threshold misapplied")
		}
	}
	stats := st.Stats()
	if stats.Compactions == 0 {
		t.Fatalf("3 × 32KiB rows stayed in the WAL under a 64KiB flush threshold (appended %d bytes)",
			stats.AppendedBytes)
	}
	if stats.Segments == 0 {
		t.Fatal("size-triggered flush wrote no segment")
	}

	// The rows remain readable across the flush.
	for _, id := range []string{"big-a", "big-b", "big-c"} {
		obj, ok := st.Get(id)
		if !ok || obj == nil {
			t.Fatalf("Get(%s) after size flush: missing", id)
		}
		if len(obj.Fields["body"]) != 32<<10 {
			t.Fatalf("row %s body truncated to %d bytes", id, len(obj.Fields["body"]))
		}
	}
}

// TestFlushBytesDisabledByDefault: without WithFlushBytes, bulky rows
// alone must not flush — only the record-count trigger applies.
func TestFlushBytesDisabledByDefault(t *testing.T) {
	st, err := Open(t.TempDir(), WithCompactEvery(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	huge := strings.Repeat("y", 40<<10)
	for _, id := range []string{"big-a", "big-b"} {
		put(t, st, id, vclock.NewVersion("gmd"), "gmd", map[string]string{
			"title": id, "body": huge})
	}
	if got := st.Stats().Compactions; got != 0 {
		t.Fatalf("Compactions = %d with no size trigger configured, want 0", got)
	}
}
