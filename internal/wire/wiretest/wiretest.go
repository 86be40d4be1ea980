// Package wiretest is the one harness every package's hand-written binary
// bodies (their AppendBinary/UnmarshalBinary pairs) are tested with: a table of messages goes in, and the round trip, the canonical
// bytes, the refusal of every kind of damage and the fuzz property are
// checked the same way for each. It is imported by tests only.
package wiretest

import (
	"bytes"
	"cmp"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mocca/internal/channel"
	"mocca/internal/rpc"
)

// Case is one message value and a way to make an empty one of its type to
// decode into.
type Case struct {
	Name string
	// Msg is the message, in the form it decodes to (nil, not empty, maps
	// and slices).
	Msg  encoding.BinaryAppender
	Into func() encoding.BinaryUnmarshaler
	// Twins are the same message built another way — maps filled in another
	// order, empty where Msg has nil — which must encode to Msg's bytes.
	Twins []encoding.BinaryAppender
}

// Of builds the Case for msg, a value of message type T, and its twins.
func Of[T encoding.BinaryAppender, P interface {
	*T
	encoding.BinaryUnmarshaler
}](name string, msg T, twins ...T) Case {
	c := Case{Name: name, Msg: msg, Into: func() encoding.BinaryUnmarshaler { return P(new(T)) }}
	for _, twin := range twins {
		c.Twins = append(c.Twins, twin)
	}
	return c
}

// Reinserted returns a copy of m filled in an order drawn from rng: a twin
// for the claim that a message's bytes do not depend on how its maps were
// built.
func Reinserted[M ~map[K]V, K cmp.Ordered, V any](rng *rand.Rand, m M) M {
	keys := slices.Sorted(maps.Keys(m))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	out := make(M)
	for _, k := range keys {
		out[k] = m[k]
	}
	return out
}

// Tap is the endpoint option that records, by rpc method, a copy of every
// body the endpoint puts on the wire — request, reply or announcement — so
// a test can read what a real exchange sent and seed a fuzz corpus with it.
func Tap(bodies map[string][][]byte) rpc.Option {
	return rpc.WithChannel(channel.WithInterceptor(func(f *channel.Frame) error {
		if f.Dir == channel.Outbound {
			method, _ := f.Env.Header("method")
			bodies[method] = append(bodies[method], bytes.Clone(f.Env.Body))
		}
		return nil
	}))
}

// Encode returns the case's body.
func (c Case) Encode(tb testing.TB) []byte {
	tb.Helper()
	b, err := c.Msg.AppendBinary(nil)
	if err != nil {
		tb.Fatalf("%s: encode: %v", c.Name, err)
	}
	return b
}

// Decoded returns the message a body decodes to, as a value.
func (c Case) Decoded(b []byte) (any, error) {
	p := c.Into()
	err := p.UnmarshalBinary(b)
	return reflect.ValueOf(p).Elem().Interface(), err
}

// RoundTrip: every case's body opens with a tag byte (high bit set), decodes
// back to the message, and is the bytes its twins encode to.
func RoundTrip(t *testing.T, cases []Case) {
	t.Helper()
	for _, c := range cases {
		b := c.Encode(t)
		if len(b) == 0 || b[0] < 0x80 {
			t.Fatalf("%s: body opens with %#x, not a tag", c.Name, b[:1])
		}
		got, err := c.Decoded(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.Name, err)
		}
		if !reflect.DeepEqual(got, c.Msg) {
			t.Fatalf("%s: round trip\n got %+v\nwant %+v", c.Name, got, c.Msg)
		}
		for i, twin := range c.Twins {
			if tb, err := twin.AppendBinary(nil); err != nil || !bytes.Equal(tb, b) {
				t.Fatalf("%s: twin %d encodes to other bytes (%v)\n got %x\nwant %x", c.Name, i, err, tb, b)
			}
		}
	}
}

// Golden pins the bytes on the wire: want maps a case's name to the hex of
// its body, and every message type among cases has a case pinned.
func Golden(t *testing.T, cases []Case, want map[string]string) {
	t.Helper()
	pinned := map[reflect.Type]bool{}
	for _, c := range cases {
		hexed, ok := want[c.Name]
		if !ok {
			continue
		}
		pinned[reflect.TypeOf(c.Msg)] = true
		if got := hex.EncodeToString(c.Encode(t)); got != hexed {
			t.Errorf("%s: the bytes changed\n got %s\nwant %s", c.Name, got, hexed)
		}
	}
	for _, c := range cases {
		if !pinned[reflect.TypeOf(c.Msg)] {
			t.Errorf("no golden pins a %T body", c.Msg)
		}
	}
}

// RejectDamage: a body cut anywhere, one byte too many, another message's
// body, or JSON are all errors, and a count of 2^60 stamped anywhere is an
// error or a changed field, never a panic. aimed holds bodies that announce
// 2^60 elements at one count each: with a few bytes behind them every
// decoder must refuse them before anything is sized by the count.
func RejectDamage(t *testing.T, cases []Case, aimed map[string][]byte) {
	t.Helper()
	for _, c := range cases {
		b := c.Encode(t)
		for i := 0; i < len(b); i++ {
			if _, err := c.Decoded(b[:i]); err == nil {
				t.Fatalf("%s: body cut at %d of %d decoded", c.Name, i, len(b))
			}
		}
		for i := 1; i+8 <= len(b); i++ {
			bad := bytes.Clone(b)
			binary.BigEndian.PutUint64(bad[i:], 1<<60)
			_, _ = c.Decoded(bad)
		}
		if _, err := c.Decoded(append(bytes.Clone(b), 0)); err == nil {
			t.Fatalf("%s: a trailing byte was accepted", c.Name)
		}
		for _, other := range cases {
			if reflect.TypeOf(other.Msg) == reflect.TypeOf(c.Msg) {
				continue
			}
			if _, err := other.Decoded(b); err == nil {
				t.Fatalf("%s decoded as %s", c.Name, other.Name)
			}
		}
		if _, err := c.Decoded([]byte(`{"site":"s000","seq":1,"entries":[]}`)); err == nil {
			t.Fatalf("%s: a JSON body was accepted", c.Name)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for name, body := range aimed {
		big := append(bytes.Clone(body), make([]byte, 64)...) // some bytes remain, far fewer than the count needs
		for _, c := range cases {
			if _, err := c.Decoded(big); err == nil {
				t.Fatalf("%s count of 2^60 decoded as %s", name, c.Name)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing counts of 2^60 allocated %d bytes", grew)
	}
}

// Retired reads the bodies an older peer put on the wire for messages since
// retired, recorded at path one per line as a name and the body's hex (none
// for an empty body; a line opening with # is a comment), to seed a fuzz
// corpus with: they are bytes a decoder may still be sent.
func Retired(tb testing.TB, path string) [][]byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var bodies [][]byte
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, hexed, _ := strings.Cut(line, " ")
		b, err := hex.DecodeString(hexed)
		if err != nil {
			tb.Fatalf("%s: %s: %v", path, name, err)
		}
		bodies = append(bodies, b)
	}
	return bodies
}

// Fuzz runs the property every decoder is fuzzed for: whatever bytes
// arrive, it either refuses them or yields a message that encodes and
// decodes back to itself. One case per message type is enough, whatever its
// Msg; the caller has added its seed corpus.
func Fuzz(f *testing.F, decoders []Case) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range decoders {
			first, err := d.Decoded(data)
			if err != nil {
				continue
			}
			again, err := first.(encoding.BinaryAppender).AppendBinary(nil)
			if err != nil {
				t.Fatalf("%s: decoded message does not encode: %v", d.Name, err)
			}
			second, err := d.Decoded(again)
			if err != nil {
				t.Fatalf("%s: re-encoded body does not decode: %v", d.Name, err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("%s: decode → encode → decode changed the message\nfirst  %+v\nsecond %+v", d.Name, first, second)
			}
		}
	})
}
