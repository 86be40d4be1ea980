package vclock

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mocca/internal/wire"
)

func TestVersionCompare(t *testing.T) {
	cases := []struct {
		name string
		a, b Version
		want Ordering
	}{
		{"both empty", nil, nil, Equal},
		{"equal", Version{"a": 1, "b": 2}, Version{"a": 1, "b": 2}, Equal},
		{"after", Version{"a": 2}, Version{"a": 1}, After},
		{"after with extra site", Version{"a": 1, "b": 1}, Version{"a": 1}, After},
		{"before", Version{"a": 1}, Version{"a": 3}, Before},
		{"before vs extra site", Version{"a": 1}, Version{"a": 1, "c": 1}, Before},
		{"concurrent", Version{"a": 2, "b": 1}, Version{"a": 1, "b": 2}, Concurrent},
		{"concurrent disjoint", Version{"a": 1}, Version{"b": 1}, Concurrent},
	}
	for _, tc := range cases {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("%s: Compare(%v,%v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestVersionTickMergeSum(t *testing.T) {
	var v Version
	v = v.Tick("gmd")
	v = v.Tick("gmd")
	if v.Counter("gmd") != 2 || v.Sum() != 2 {
		t.Fatalf("after two ticks: %v (sum %d)", v, v.Sum())
	}
	o := NewVersion("upc")
	m := v.Merge(o)
	if m.Counter("gmd") != 2 || m.Counter("upc") != 1 || m.Sum() != 3 {
		t.Fatalf("merge = %v", m)
	}
	if !m.Dominates(v) || !m.Dominates(o) {
		t.Fatal("merge must dominate both inputs")
	}
	if m.Compare(v) != After || v.Compare(m) != Before {
		t.Fatal("merge ordering wrong")
	}
	// Merge is a pure function of its inputs.
	if v.Sum() != 2 || o.Sum() != 1 {
		t.Fatal("merge mutated an input")
	}
	// Sum is merge-invariant under convergence: merging in either order
	// yields the same total.
	if o.Merge(v).Sum() != m.Sum() {
		t.Fatal("sum not merge-invariant")
	}
}

func TestVersionCloneAndString(t *testing.T) {
	v := Version{"b": 2, "a": 1}
	c := v.Clone()
	c.Tick("a")
	if v.Counter("a") != 1 {
		t.Fatal("clone aliases original")
	}
	if s := v.String(); s != "a:1 b:2" {
		t.Fatalf("String = %q", s)
	}
	if s := Version(nil).String(); s != "∅" {
		t.Fatalf("empty String = %q", s)
	}
}

func TestVersionBinaryRoundTrip(t *testing.T) {
	cases := []Version{
		nil,
		{"gmd": 1},
		{"gmd": 3, "upc": 9, "nott": 1},
	}
	for _, v := range cases {
		data := v.AppendBinary([]byte("prefix"))
		got, rest, err := DecodeVersion(data[len("prefix"):])
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%v: %d trailing bytes", v, len(rest))
		}
		if got.Compare(v) != Equal || len(got) != len(v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

func TestVersionBinaryIsCanonical(t *testing.T) {
	a := Version{"gmd": 2, "upc": 5}
	b := Version{"upc": 5, "gmd": 2}
	ab, bb := a.AppendBinary(nil), b.AppendBinary(nil)
	if string(ab) != string(bb) {
		t.Fatal("equal vectors encoded differently")
	}
}

// Hostile vectors, each refused before anything is sized by what it says.
var (
	vvElevenByteUvarint = []byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}   // a name length in 11 bytes
	vvNamePastEnd       = []byte{1, 9, 'g', 'm', 'd', 1}                                                // a 9-byte name in 4 bytes
	vvCountPastEnd      = []byte{0x80, 0x80, 0x04, 3, 'g', 'm', 'd', 1}                                 // 2^16 sites in 5 bytes
	vvCounterPast64Bits = []byte{1, 1, 'g', 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F} // a counter past 2^64
)

func TestDecodeVersionMalformed(t *testing.T) {
	for _, data := range [][]byte{
		{},     // no count
		{0x80}, // a count cut short
		{1},    // count 1, nothing else
		{1, 9}, // site length past end
		vvElevenByteUvarint, vvNamePastEnd, vvCountPastEnd, vvCounterPast64Bits,
	} {
		_, _, err := DecodeVersion(data)
		if !errors.Is(err, ErrBadVersion) || !(errors.Is(err, wire.ErrTruncated) || errors.Is(err, wire.ErrOversize)) {
			t.Fatalf("%x: err %v, want ErrBadVersion wrapping wire's error", data, err)
		}
	}
}

// referenceDecodeVersion is the string-per-site decoder: each name and
// counter read and checked as it comes, with wire's uvarint readers. It is
// the reference the one decoder is held to.
func referenceDecodeVersion(data []byte) (Version, []byte, error) {
	n, data, err := wire.ConsumeUvarint(data)
	if err != nil {
		return nil, data, fmt.Errorf("%w: %v", ErrBadVersion, err)
	}
	if n == 0 {
		return nil, data, nil
	}
	// Each entry takes at least 2 bytes (length + counter); a count past
	// that bound is corruption, caught before allocating.
	if n > uint64(len(data))/2 {
		return nil, data, ErrBadVersion
	}
	v := make(Version, n)
	for i := uint64(0); i < n; i++ {
		var site string
		if site, data, err = wire.ConsumeString(data); err != nil {
			return nil, data, fmt.Errorf("%w: %v", ErrBadVersion, err)
		}
		var c uint64
		if c, data, err = wire.ConsumeUvarint(data); err != nil {
			return nil, data, fmt.Errorf("%w: %v", ErrBadVersion, err)
		}
		v[site] = c
	}
	return v, data, nil
}

// checkScanMatchesDecode: ScanVersion and DecodeVersion err exactly when the
// reference errs, with the same class of error; on success raw is the
// vector's bytes and DecodeVersion reads what the reference reads.
func checkScanMatchesDecode(t *testing.T, data []byte) {
	t.Helper()
	want, wantRest, refErr := referenceDecodeVersion(data)
	got, gotRest, decErr := DecodeVersion(data)
	if (refErr == nil) != (decErr == nil) || errors.Is(refErr, ErrBadVersion) != errors.Is(decErr, ErrBadVersion) {
		t.Fatalf("reference err %v, DecodeVersion err %v on %x", refErr, decErr, data)
	}
	if decErr == nil && (!reflect.DeepEqual(got, want) || !bytes.Equal(gotRest, wantRest)) {
		t.Fatalf("DecodeVersion of %x: %v, %d bytes left; the reference reads %v, %d bytes left", data, got, len(gotRest), want, len(wantRest))
	}
	raw, rest, scanErr := ScanVersion(data)
	if (decErr == nil) != (scanErr == nil) || errors.Is(decErr, ErrBadVersion) != errors.Is(scanErr, ErrBadVersion) {
		t.Fatalf("DecodeVersion err %v, ScanVersion err %v on %x", decErr, scanErr, data)
	}
	if decErr != nil {
		if raw != nil || !bytes.Equal(rest, data) {
			t.Fatalf("a refused vector was handed out: raw %x, rest %x of %x", raw, rest, data)
		}
		return
	}
	if !bytes.Equal(rest, wantRest) || !bytes.Equal(raw, data[:len(data)-len(rest)]) {
		t.Fatalf("ScanVersion of %x: raw %x, rest %x; DecodeVersion left %x", data, raw, rest, wantRest)
	}
	got, tail, err := DecodeVersion(raw)
	if err != nil || len(tail) != 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("raw %x decodes to %v (%d left, %v), the vector is %v", raw, got, len(tail), err, want)
	}
}

// hostile is enc damaged at every offset in the ways a varint codec can
// be: cut there, a byte there raised to 0x7F, a byte below 0x80 there said
// in two bytes (a uvarint no encoder writes, which still decodes), and,
// inserted there, an 11-byte uvarint, a 10-byte one past 64 bits and
// 2^64−1 in ten bytes.
func hostile(enc []byte) [][]byte {
	var out [][]byte
	inserts := [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	}
	for i := 0; i < len(enc); i++ {
		out = append(out, enc[:i])
		raised := bytes.Clone(enc)
		raised[i] = 0x7F
		out = append(out, raised)
		if enc[i] < 0x80 {
			out = append(out, slices.Concat(enc[:i], []byte{enc[i] | 0x80, 0}, enc[i+1:]))
		}
		for _, in := range inserts {
			out = append(out, slices.Concat(enc[:i], in, enc[i:]))
		}
	}
	return out
}

// scanVersionSeeds are the edge vectors whole (with a tail behind them) and
// damaged every way hostile damages them, plus TestDecodeVersionMalformed's
// cases.
func scanVersionSeeds() [][]byte {
	wide := Version{}
	for i := 0; i < 18; i++ {
		wide[fmt.Sprintf("s%03d", i)] = uint64(i + 1)
	}
	out := [][]byte{{}, {0x80}, {1}, {1, 9}, vvElevenByteUvarint, vvNamePastEnd, vvCountPastEnd, vvCounterPast64Bits}
	for _, v := range []Version{nil, {"gmd": 1}, {"": 0}, {"köln": 1 << 63, "日本": 2}, wide} {
		enc := v.AppendBinary(nil)
		out = append(out, append(bytes.Clone(enc), "tail"...))
		out = append(out, hostile(enc)...)
	}
	// Not canonical, still a vector: unsorted sites, one site twice.
	entry := func(b []byte, site string, c uint64) []byte {
		return wire.AppendUvarint(wire.AppendString(b, site), c)
	}
	out = append(out, entry(entry([]byte{2}, "b", 1), "a", 2))
	out = append(out, entry(entry([]byte{2}, "a", 1), "a", 2))
	return out
}

func TestScanVersionMatchesDecode(t *testing.T) {
	for _, data := range scanVersionSeeds() {
		checkScanMatchesDecode(t, data)
	}
	enc := Version{"gmd": 3, "upc": 9, "nott": 1}.AppendBinary(nil)
	if n := testing.AllocsPerRun(100, func() { _, _, _ = ScanVersion(enc) }); n != 0 {
		t.Fatalf("ScanVersion allocates %v times per vector", n)
	}
}

func FuzzScanVersionMatchesDecode(f *testing.F) {
	for i, data := range scanVersionSeeds() {
		if i < 8 || i%5 == 0 { // the hostile cases and a spread of the rest; TestScanVersionMatchesDecode runs all
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkScanMatchesDecode(t, data) })
}

// raceEnabled is set by race_test.go when the tests run under -race.
var raceEnabled bool

// versionSink makes a map built in a test escape, as a decoded one does.
var versionSink Version

// TestDecodeVersionAllocs: a vector costs its map and one string holding
// every site name, however many sites it has.
func TestDecodeVersionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, sites := range []int{1, 3, 18} {
		v := Version{}
		for i := range sites {
			v[fmt.Sprintf("s%03d", i)] = uint64(i + 1)
		}
		enc := v.AppendBinary(nil)
		maps := testing.AllocsPerRun(100, func() {
			m := make(Version, len(v))
			for s, c := range v {
				m[s] = c
			}
			versionSink = m
		})
		if n := testing.AllocsPerRun(100, func() { _, _, _ = DecodeVersion(enc) }); n != maps+1 {
			t.Fatalf("a %d-site vector takes %v allocations, want its map's %v and one string", sites, n, maps)
		}
	}
}
