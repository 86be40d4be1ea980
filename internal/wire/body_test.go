package wire

import (
	"errors"
	"testing"
	"time"
)

// sample is a body of every primitive the cursor reads.
func sample(at time.Time) []byte {
	b := []byte{0xF1, 0b101}
	b = AppendString(b, "köln")
	b = AppendUint64(b, 1<<40)
	b = AppendUint64(b, uint64(3)) // a count of three strings
	for _, s := range []string{"a", "", "c"} {
		b = AppendString(b, s)
	}
	minusSeven := -7
	b = AppendUint64(b, uint64(minusSeven))
	b = AppendTime(b, at)
	return append(b, 0xDE, 0xAD)
}

func TestBodyReadsWhatTheHelpersAppend(t *testing.T) {
	at := time.Unix(708080400, 123456789).UTC()
	b := OpenBody(sample(at), 0xF1, "sample")
	if got := b.Flags(0b111); got != 0b101 {
		t.Fatalf("Flags = %#b", got)
	}
	if s, v := b.String(), b.Uint64(); s != "köln" || v != 1<<40 {
		t.Fatalf("String, Uint64 = %q, %d", s, v)
	}
	n := b.Count(4)
	if n != 3 {
		t.Fatalf("Count = %d", n)
	}
	for i, want := range []string{"a", "", "c"} {
		if got := b.String(); got != want {
			t.Fatalf("string %d = %q", i, got)
		}
	}
	if got := b.Int(); got != -7 {
		t.Fatalf("Int = %d", got)
	}
	if got := b.Time(); !got.Equal(at) || got != at {
		t.Fatalf("Time = %v, want %v", got, at)
	}
	peek := b
	if got := peek.Raw(2); len(got) != 2 || got[0] != 0xDE || cap(got) != 2 {
		t.Fatalf("Raw on a copy = %x (cap %d)", got, cap(got))
	}
	if err := b.Close(); !errors.Is(err, ErrBadBody) {
		t.Fatalf("the copy moved the original: Close = %v, want two trailing bytes refused", err)
	}
	if err := peek.Close(); err != nil {
		t.Fatalf("Close after the last byte: %v", err)
	}
}

// TestBodyTimeKeepsEveryInstant: seconds and nanoseconds carry what
// UnixNano cannot — the zero time.Time above all, which must still read
// IsZero and compare equal to a zero field.
func TestBodyTimeKeepsEveryInstant(t *testing.T) {
	for _, at := range []time.Time{
		{},
		time.Unix(0, 0).UTC(),
		time.Unix(-1, 999999999).UTC(),
		time.Date(1815, 12, 10, 0, 0, 0, 1, time.UTC),
		time.Date(2492, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1992, 6, 9, 12, 0, 0, 0, time.FixedZone("CEST", 7200)),
	} {
		b := OpenBody(AppendTime([]byte{0xF1}, at), 0xF1, "instant")
		got := b.Time()
		if err := b.Close(); err != nil {
			t.Fatalf("%v: %v", at, err)
		}
		if got != at.UTC() || got.IsZero() != at.IsZero() {
			t.Fatalf("wrote %v (zero %v), read %v (zero %v)", at, at.IsZero(), got, got.IsZero())
		}
	}
	over := OpenBody(append(AppendUint64([]byte{0xF1}, 0), 0x3B, 0x9A, 0xCA, 0x00), 0xF1, "instant") // 1e9 ns
	if over.Time(); !errors.Is(over.Close(), ErrBadBody) {
		t.Fatalf("a nanosecond field of 1e9: %v", over.Close())
	}
}

// TestBodyFirstFailureSticks: whatever fails first is what Close reports,
// every later read is a zero value, and nothing panics on the way.
func TestBodyFirstFailureSticks(t *testing.T) {
	at := time.Unix(1, 1)
	whole := sample(at)
	readAll := func(b *Body) {
		b.Flags(0b111)
		_, _ = b.String(), b.Uint64()
		for range b.Count(4) {
			_ = b.String()
		}
		_, _ = b.Int(), b.Time()
		b.Raw(2)
	}
	for cut := 0; cut < len(whole); cut++ {
		b := OpenBody(whole[:cut], 0xF1, "sample")
		readAll(&b)
		err := b.Close()
		if err == nil {
			t.Fatalf("a body cut at %d of %d read clean", cut, len(whole))
		}
		if s, v, n, raw := b.String(), b.Uint64(), b.Count(1), b.Raw(0); s != "" || v != 0 || n != 0 || raw != nil || b.Close() != err {
			t.Fatalf("cut at %d: reads after the failure returned %q %d %d %v, Close %v then %v", cut, s, v, n, raw, err, b.Close())
		}
	}
	cases := map[string]func(*Body){
		"another tag":  func(b *Body) { *b = OpenBody(whole, 0xF2, "other") },
		"a stray flag": func(b *Body) { b.Flags(0b001) },
		"a count too far": func(b *Body) {
			b.Flags(0b111)
			_, _ = b.String(), b.Uint64()
			if n := b.Count(64); n != 0 { // three elements of 64 bytes do not fit in what is left
				t.Fatalf("Count = %d for elements that cannot fit", n)
			}
		},
	}
	for name, damage := range cases {
		b := OpenBody(whole, 0xF1, "sample")
		damage(&b)
		if err := b.Close(); !errors.Is(err, ErrBadBody) {
			t.Fatalf("%s: Close = %v, want ErrBadBody", name, err)
		}
	}
	if b := OpenBody(nil, 0xF1, "sample"); !errors.Is(b.Close(), ErrBadBody) {
		t.Fatal("an empty body opened")
	}
}

// TestConsumeRunsForeignDecoders: Consume is how a vector's or a row's own
// (value, rest, error) decoder reads at the cursor; its error sticks like
// any other and the cursor stays where it was.
func TestConsumeRunsForeignDecoders(t *testing.T) {
	pair := func(data []byte) ([2]byte, []byte, error) {
		if len(data) < 2 {
			return [2]byte{}, data, ErrTruncated
		}
		return [2]byte{data[0], data[1]}, data[2:], nil
	}
	b := OpenBody([]byte{0xF1, 1, 2, 3}, 0xF1, "pairs")
	if got := Consume(&b, pair); got != [2]byte{1, 2} {
		t.Fatalf("Consume = %v", got)
	}
	if got := Consume(&b, pair); got != [2]byte{} || !errors.Is(b.Close(), ErrTruncated) {
		t.Fatalf("Consume past the end = %v, Close %v", got, b.Close())
	}
}
