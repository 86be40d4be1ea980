package logstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mocca/internal/wire"
)

// walBoundaries parses the WAL's record frame boundaries: boundaries[i]
// is the byte offset where record i starts, with a final entry at the
// end of the intact log.
func walBoundaries(walBytes []byte) []int {
	boundaries := []int{0}
	rest := walBytes
	for len(rest) > 0 {
		_, r2, err := wire.NextRecord(rest)
		if err != nil {
			break
		}
		boundaries = append(boundaries, boundaries[len(boundaries)-1]+(len(rest)-len(r2)))
		rest = r2
	}
	return boundaries
}

// recordsWithin counts the records fully contained in the first n bytes.
func recordsWithin(boundaries []int, n int) int {
	count := 0
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= n {
			count++
		}
	}
	return count
}

// openPrefix writes the first n WAL bytes into a fresh directory and
// recovers a store from it.
func openPrefix(t *testing.T, walBytes []byte, n int) *Store {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), walBytes[:n], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open with %d-byte WAL prefix: %v", n, err)
	}
	return st
}

// TestTornWriteRecoveryAtArbitraryOffsets models a crash tearing the
// last write at EVERY byte offset of its frame (and a sample of earlier
// offsets): recovery must succeed at each, keep exactly the records
// fully on disk, and be idempotent — reopening the recovered store
// yields the identical state.
func TestTornWriteRecoveryAtArbitraryOffsets(t *testing.T) {
	src := t.TempDir()
	st, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st, 12, 1992)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(src, walName))
	if err != nil {
		t.Fatal(err)
	}
	boundaries := walBoundaries(walBytes)
	if len(boundaries) < 3 || boundaries[len(boundaries)-1] != len(walBytes) {
		t.Fatalf("unexpected WAL layout: %d boundaries over %d bytes", len(boundaries), len(walBytes))
	}

	// Every offset within the final record's frame, plus a stride across
	// the whole log.
	offsets := map[int]bool{0: true, len(walBytes): true}
	for n := boundaries[len(boundaries)-2]; n <= len(walBytes); n++ {
		offsets[n] = true
	}
	for n := 0; n < len(walBytes); n += 13 {
		offsets[n] = true
	}

	for n := range offsets {
		st2 := openPrefix(t, walBytes, n)
		want := recordsWithin(boundaries, n)
		if got := st2.Stats().ReplayedRecords; got != want {
			t.Fatalf("prefix %d: replayed %d records, want %d", n, got, want)
		}
		if st2.Len() != want { // one row per record, every id distinct
			t.Fatalf("prefix %d: %d rows live, want %d", n, st2.Len(), want)
		}
		// Idempotent recovery: the truncated-and-recovered store reopens
		// byte-identically.
		before := digestBinary(st2)
		st3 := reopen(t, st2)
		if !reflect.DeepEqual(digestBinary(st3), before) {
			t.Fatalf("prefix %d: second recovery changed the digest", n)
		}
		if err := st3.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBitRotRecoveryAtArbitraryOffsets flips one byte at a sample of
// offsets: the CRC must end the replay at the rotted record, keeping the
// intact prefix, and the store must accept appends again afterwards.
func TestBitRotRecoveryAtArbitraryOffsets(t *testing.T) {
	src := t.TempDir()
	st, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, st, 12, 41)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(src, walName))
	if err != nil {
		t.Fatal(err)
	}
	boundaries := walBoundaries(walBytes)

	for n := 0; n < len(walBytes); n += 29 {
		rotted := bytes.Clone(walBytes)
		rotted[n] ^= 0x40
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), rotted, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dir)
		if err != nil {
			t.Fatalf("rot at %d: %v", n, err)
		}
		// Everything strictly before the rotted record survives; the rot
		// and whatever followed it is gone.
		want := recordsWithin(boundaries, n)
		if got := st2.Stats().ReplayedRecords; got != want {
			t.Fatalf("rot at %d: replayed %d records, want %d", n, got, want)
		}
		if st2.Stats().DiscardedBytes == 0 {
			t.Fatalf("rot at %d: nothing discarded", n)
		}
		// The recovered store is writable again.
		put(t, st2, "post-rot", map[string]uint64{"gmd": 9}, "gmd", map[string]string{"title": "alive"})
		if _, ok := st2.Get("post-rot"); !ok {
			t.Fatalf("rot at %d: store not writable after recovery", n)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
