package information

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"mocca/internal/id"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// The ids at the edges of the compact form: those it says by their parts,
// and those it must spell — a leading zero, upper-case hex, seven or nine
// hex digits, a sequence of 0 or past 2⁶⁴, no sequence, a trailing part,
// another kind.
var (
	mintedEdgeIDs  = []string{"info-1-e4194b6b", "info-127-00000000", "info-128-ffffffff", "info-18446744073709551615-0c9e77a2"}
	spelledEdgeIDs = []string{"info-01-e4194b6b", "info-1-E4194B6B", "info-1-e4194b6", "info-1-e4194b6b0",
		"info-18446744073709551616-e4194b6b", "info-0-e4194b6b", "info--e4194b6b", "info-1-e4194b6b-x", "infox-1-e4194b6b",
		"info-1-e4194b6g", "info-1+e4194b6b", "info-", "", "obj000042"}
)

// edgeIDRows is a small row under each edge id.
func edgeIDRows() []*Object {
	at := time.Unix(0, 708080400123456789).UTC()
	var rows []*Object
	for _, id := range slices.Concat(mintedEdgeIDs, spelledEdgeIDs) {
		rows = append(rows, &Object{ID: id, Schema: "doc", Owner: "ada", Site: "s001", Version: 1, VV: vclock.Version{"s001": 1},
			Fields: map[string]string{"title": "t"}, Created: at, Updated: at})
	}
	return rows
}

// Wire-form rows refused for how they say their id: a compact sequence of
// 0, and spelled an id the compact form says. Each stands where the
// smallest row's id would.
var (
	rowIDSequenceZero  = slices.Concat([]byte{0, 0, 0xe4, 0x19, 0x4b, 0x6b}, rowWireBody)
	rowIDSpelledMinted = slices.Concat([]byte{16}, []byte("info-1-e4194b6b"), rowWireBody)
	rowWireBody        = slices.Concat([]byte{1, 0, 1, 0}, rowWireTail) // the empty schema spelled, no owner, s000 writes, no vector
)

// TestWireIDForms: an id a Space mints travels in 6 to 15 bytes by its
// parts, any other spelled; either way it reads back as exactly the string
// it was encoded from, alone and as a row's id, and its encoding is the
// one AppendWireID writes.
func TestWireIDForms(t *testing.T) {
	ids := id.New()
	minted := slices.Clone(mintedEdgeIDs)
	for range 300 {
		minted = append(minted, ids.Next(idKind))
	}
	for _, forms := range []struct {
		ids     []string
		compact bool
	}{{minted, true}, {spelledEdgeIDs, false}} {
		for _, id := range forms.ids {
			enc := AppendWireID(nil, id)
			if compact := enc[0] == 0; compact != forms.compact || len(enc) != WireIDLen(id) {
				t.Fatalf("%q: %x (%d bytes, WireIDLen %d), want compact %v", id, enc, len(enc), WireIDLen(id), forms.compact)
			}
			if forms.compact && (len(enc) < 6 || len(enc) > 15) {
				t.Fatalf("%q takes %d bytes by its parts", id, len(enc))
			}
			got, rest, err := ConsumeWireID(append(enc, "tail"...))
			if err != nil || got != id || string(rest) != "tail" {
				t.Fatalf("%q: %x reads back as %q, rest %q (%v)", id, enc, got, rest, err)
			}
			for i := range enc {
				if _, _, err := ConsumeWireID(enc[:i]); err == nil {
					t.Fatalf("%q cut at %d of %d read", id, i, len(enc))
				}
			}
		}
	}
	for _, row := range edgeIDRows() {
		got, _, err := DecodeWireObject(AppendWireObject(nil, row))
		if err != nil || !reflect.DeepEqual(got, row) {
			t.Fatalf("a row under %q reads back as %+v (%v)", row.ID, got, err)
		}
	}
	// One encoding per id: a sequence of 0 is no id, and an id the
	// compact form says is never spelled.
	for name, bad := range map[string][]byte{
		"sequence 0":     {0, 0, 0xe4, 0x19, 0x4b, 0x6b},
		"spelled minted": rowIDSpelledMinted[:16],
	} {
		if _, _, err := ConsumeWireID(bad); !errors.Is(err, wire.ErrBadBody) {
			t.Errorf("%s: %x: %v, want wire.ErrBadBody", name, bad, err)
		}
	}
	for name, bad := range map[string][]byte{"sequence 0": rowIDSequenceZero, "spelled minted": rowIDSpelledMinted} {
		if _, _, err := DecodeWireObject(bad); !errors.Is(err, wire.ErrBadBody) {
			t.Errorf("a row whose id is a %s: %v, want wire.ErrBadBody", name, err)
		}
	}
	if _, _, err := DecodeWireObject(slices.Concat([]byte{0, 1, 0xe4, 0x19, 0x4b, 0x6b}, rowWireBody)); err != nil {
		t.Fatalf("the smallest row under a compact id: %v", err)
	}
}

// TestWireIDAllocs: walking a compact id allocates nothing, and reading
// one is the string alone, as a spelled one's copy is.
func TestWireIDAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, id := range []string{"info-4711-3ad1e85f", "obj000042"} {
		enc := AppendWireID(nil, id)
		if n := testing.AllocsPerRun(100, func() { _, _, _ = scanWireID(enc) }); n != 0 {
			t.Errorf("scanWireID(%q) allocates %v times", id, n)
		}
		if n := testing.AllocsPerRun(100, func() { _, _, _ = ConsumeWireID(enc) }); n != 1 {
			t.Errorf("ConsumeWireID(%q) allocates %v times, want 1", id, n)
		}
		buf := make([]byte, 0, 64)
		if n := testing.AllocsPerRun(100, func() { buf = AppendWireID(buf[:0], id) }); n != 0 || !bytes.Equal(buf, enc) {
			t.Errorf("AppendWireID(%q) allocates %v times", id, n)
		}
	}
}
