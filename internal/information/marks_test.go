package information

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"mocca/internal/wire"
)

// marksList reads a section SkipMarks accepted into its sites and marks,
// in order: the reference the delta is checked against.
func marksList(section []byte) (names []string, marks []uint64) {
	c := newMarksCursor(section)
	for name, mark, ok := c.next(); ok; name, mark, ok = c.next() {
		names = append(names, string(name))
		marks = append(marks, mark)
	}
	return names, marks
}

// deltaExpressible is the rule AppendMarksDelta answers to: cur keeps
// every site of base at a mark no lower.
func deltaExpressible(base, cur []byte) bool {
	bn, bm := marksList(base)
	cn, cm := marksList(cur)
	for i, name := range bn {
		j := slices.Index(cn, name)
		if j < 0 || cm[j] < bm[i] {
			return false
		}
	}
	return true
}

func TestMarksDelta(t *testing.T) {
	base := marksSection(map[string]uint64{"s0": 4, "s1": 300, "s3": 1})
	cases := []struct {
		name string
		cur  map[string]uint64
		size int // of the delta; -1: not expressible
	}{
		{"unchanged", map[string]uint64{"s0": 4, "s1": 300, "s3": 1}, 2},
		{"one rose", map[string]uint64{"s0": 4, "s1": 302, "s3": 1}, 4},
		{"rose and added", map[string]uint64{"a": 9, "s0": 5, "s1": 300, "s2": 1 << 20, "s3": 1}, 1 + 2 + 1 + 3 + 6},
		{"lowered", map[string]uint64{"s0": 3, "s1": 300, "s3": 1}, -1},
		{"dropped", map[string]uint64{"s0": 4, "s1": 300}, -1},
	}
	for _, tc := range cases {
		cur := marksSection(tc.cur)
		delta, ok := AppendMarksDelta([]byte{0xEE}, base, cur)
		if !ok {
			if tc.size >= 0 || !bytes.Equal(delta, []byte{0xEE}) {
				t.Errorf("%s: delta refused (%x)", tc.name, delta)
			}
			continue
		}
		if tc.size < 0 || len(delta)-1 != tc.size {
			t.Errorf("%s: %d-byte delta %x, want %d bytes", tc.name, len(delta)-1, delta[1:], tc.size)
			continue
		}
		got, rest, err := SkipMarksDelta(append(delta[1:], 0xEE))
		if err != nil || !bytes.Equal(got, delta[1:]) || !bytes.Equal(rest, []byte{0xEE}) {
			t.Errorf("%s: SkipMarksDelta = %x, %x, %v", tc.name, got, rest, err)
		}
		rebuilt, err := ApplyMarksDelta(nil, base, delta[1:])
		if err != nil || !bytes.Equal(rebuilt, cur) {
			t.Errorf("%s: rebuilt %x (%v), want %x", tc.name, rebuilt, err, cur)
		}
	}

	// 200 rises take a two-byte count.
	wideBase, wideCur := map[string]uint64{}, map[string]uint64{}
	for i := range 200 {
		wideBase[fmt.Sprintf("w%03d", i)] = 1
		wideCur[fmt.Sprintf("w%03d", i)] = 2
	}
	wideCur["x"] = 1
	wb, wc := marksSection(wideBase), marksSection(wideCur)
	if delta, ok := AppendMarksDelta(nil, wb, wc); !ok || delta[0] != 0x80|200&0x7f || delta[1] != 1 {
		t.Errorf("200 rises: delta %x…", delta[:4])
	} else if rebuilt, err := ApplyMarksDelta(nil, wb, delta); err != nil || !bytes.Equal(rebuilt, wc) {
		t.Errorf("200 rises: rebuilt %v, %v", err, bytes.Equal(rebuilt, wc))
	}

	for name, bad := range map[string][]byte{
		"positions out of order": {2, 1, 1, 0, 1, 0},
		"rise of zero":           {1, 0, 0, 0},
		"names out of order":     slices.Concat([]byte{0, 2}, wire.AppendString(nil, "b"), []byte{1}, wire.AppendString(nil, "a"), []byte{1}),
		"huge count":             wire.AppendUvarint(nil, 1<<60),
		"truncated":              {1, 0},
		"empty":                  nil,
	} {
		if _, _, err := SkipMarksDelta(bad); err == nil {
			t.Errorf("%s: SkipMarksDelta accepted %x", name, bad)
		}
	}
	for name, bad := range map[string][]byte{
		"a position past the base": {1, 3, 1, 0},
		"a name the base holds":    slices.Concat([]byte{0, 1}, wire.AppendString(nil, "s1"), []byte{1}),
		"a rise past 64 bits":      slices.Concat([]byte{1, 1}, wire.AppendUvarint(nil, 1<<64-1), []byte{0}),
	} {
		if _, _, err := SkipMarksDelta(bad); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, err := ApplyMarksDelta(nil, base, bad); err == nil {
			t.Errorf("%s: rebuilt %x", name, got)
		}
	}
	if _, _, err := SkipMarks([]byte{1, 2, 's', '0', 0x85, 0}); err == nil {
		t.Error("SkipMarks accepted a mark not in its shortest form")
	}

	if raceEnabled {
		t.Skip("allocation counts under -race")
	}
	cur := marksSection(cases[2].cur)
	delta, _ := AppendMarksDelta(nil, base, cur)
	buf := make([]byte, 0, 64)
	for name, op := range map[string]func(){
		"AppendMarksDelta": func() { buf, _ = AppendMarksDelta(buf[:0], base, cur) },
		"SkipMarksDelta":   func() { _, _, _ = SkipMarksDelta(delta) },
		"ApplyMarksDelta":  func() { buf, _ = ApplyMarksDelta(buf[:0], base, delta) },
		"MarksCheck":       func() { _ = MarksCheck(cur) },
	} {
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("%s into a buffer that holds it: %.0f allocations, want 0", name, n)
		}
	}
}

// FuzzMarksDelta: for any two sections SkipMarks accepts, the delta
// base → cur exists exactly when cur keeps every site of base at a mark no
// lower, and applying it to base gives cur byte for byte. Applied to any
// other section it is refused, or what it rebuilds fails cur's check.
func FuzzMarksDelta(f *testing.F) {
	base := map[string]uint64{"s0": 4, "s1": 300, "s3": 1}
	for _, pair := range [][2]map[string]uint64{
		{base, base},
		{base, {"s0": 5, "s1": 300, "s3": 1}},
		{base, {"a": 9, "s0": 5, "s1": 301, "s2": 1 << 20, "s3": 1}},
		{base, {"s0": 3, "s1": 300, "s3": 1}},
		{base, {"s0": 4}},
		{nil, base},
		{{"köln": 1}, {"köln": 1 << 40, "zz": 0}},
	} {
		f.Add(marksSection(pair[0]), marksSection(pair[1]), marksSection(map[string]uint64{"s0": 4, "s1": 299, "s3": 1}))
	}
	f.Fuzz(func(t *testing.T, base, cur, other []byte) {
		if s, rest, err := SkipMarks(base); err != nil || len(rest) > 0 || len(s) != len(base) {
			return
		}
		if s, rest, err := SkipMarks(cur); err != nil || len(rest) > 0 || len(s) != len(cur) {
			return
		}
		delta, ok := AppendMarksDelta(nil, base, cur)
		if ok != deltaExpressible(base, cur) {
			t.Fatalf("AppendMarksDelta(%x, %x) ok = %v, the rule says %v", base, cur, ok, !ok)
		}
		if !ok {
			return
		}
		if got, rest, err := SkipMarksDelta(delta); err != nil || len(rest) > 0 || !bytes.Equal(got, delta) {
			t.Fatalf("SkipMarksDelta refused the delta %x: %v", delta, err)
		}
		rebuilt, err := ApplyMarksDelta(nil, base, delta)
		if err != nil || !bytes.Equal(rebuilt, cur) {
			t.Fatalf("delta %x on %x rebuilt %x (%v), want %x", delta, base, rebuilt, err, cur)
		}
		if _, rest, err := SkipMarks(other); err != nil || len(rest) > 0 || bytes.Equal(other, base) {
			return
		}
		if wrong, err := ApplyMarksDelta(nil, other, delta); err == nil && MarksCheck(wrong) == MarksCheck(cur) {
			t.Fatalf("delta %x for base %x, applied to %x, rebuilt %x and passed cur's check", delta, base, other, wrong)
		}
	})
}
