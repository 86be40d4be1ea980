package rpc

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mocca/internal/channel"
	"mocca/internal/netsim"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// note is the binary test message of this package's typed calls.
type note struct {
	Seq  int
	Text string
}

// tagNote opens a note's body.
const tagNote byte = 0xF1

func (n note) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendUvarint(append(b, tagNote), uint64(n.Seq))
	return wire.AppendString(b, n.Text), nil
}

func (n *note) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagNote, "note")
	*n = note{Seq: b.Int(), Text: b.String()}
	return b.Close()
}

// TestRetryResendsTheSameBody: a typed call builds its body in a pooled
// scratch and gives the scratch back when GoMsg returns — but a call with a
// retry budget resends later, after a hundred other calls have been through
// the pool, and must then send the bytes it sent first.
func TestRetryResendsTheSameBody(t *testing.T) {
	var sent [][]byte // every outbound "slow" request body, copied as it passes
	dropped := false
	capture := channel.WithInterceptor(func(f *channel.Frame) error {
		if m, _ := f.Env.Header("method"); f.Dir != channel.Outbound || f.Env.Kind != kindRequest || m != "slow" {
			return nil
		}
		sent = append(sent, bytes.Clone(f.Env.Body))
		if !dropped {
			dropped = true
			return channel.ErrDropFrame
		}
		return nil
	})
	f := newFixture(t, WithChannel(capture))
	echo := Handle(func(_ netsim.Address, n note) (note, error) { return n, nil })
	f.b.MustRegister("slow", echo)
	f.b.MustRegister("echo", echo)

	want := note{Seq: 1, Text: strings.Repeat("the body of the first attempt ", 8)}
	var got Result
	f.a.GoMsg("b", "slow", want, func(r Result) { got = kept(r) },
		CallTimeout(time.Second), CallBackoff(5*time.Second))
	for i := 0; i < 100; i++ {
		filler := note{Seq: 100 + i, Text: strings.Repeat("x", 40+3*i)}
		f.a.GoMsg("b", "echo", filler, func(r Result) {
			var back note
			if err := r.Decode(&back); err != nil || back != filler {
				t.Errorf("filler %d came back as %+v, %v", filler.Seq, back, err)
			}
		})
	}
	f.clk.RunUntilIdle()

	var back note
	if err := got.Decode(&back); err != nil || back != want {
		t.Fatalf("retried call returned %+v, %v; want %+v", back, err, want)
	}
	if len(sent) != 2 || !bytes.Equal(sent[0], sent[1]) {
		t.Fatalf("attempts sent %q; want the same body twice", sent)
	}
	if st := f.a.Stats(); st.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want the dropped first attempt's", st.Timeouts)
	}
}

// TestHandlerReplyScratchIsNotRetained: a typed handler's reply is built in
// a scratch the endpoint takes back once the reply frame is sent. Replies of
// different sizes from two handlers, many in flight at once on a network
// that holds frames until simulated delivery, must each arrive whole — on
// the simulated clock, and from concurrent callers on the real one.
func TestHandlerReplyScratchIsNotRetained(t *testing.T) {
	register := func(ep *Endpoint) {
		ep.MustRegister("long", Handle(func(_ netsim.Address, n note) (note, error) {
			return note{Seq: n.Seq, Text: strings.Repeat(n.Text, 50)}, nil
		}))
		ep.MustRegister("short", HandleCtx(func(_ netsim.Address, _ wire.TraceContext, n note) (note, error) {
			return note{Seq: -n.Seq, Text: n.Text}, nil
		}))
	}
	check := func(t *testing.T, i int, method string, back note, err error) {
		want := note{Seq: -i, Text: fmt.Sprint("t", i)}
		if method == "long" {
			want = note{Seq: i, Text: strings.Repeat(want.Text, 50)}
		}
		if err != nil || back != want {
			t.Errorf("%s %d: reply %+v, %v; want %+v", method, i, back, err, want)
		}
	}

	t.Run("simulated", func(t *testing.T) {
		f := newFixture(t)
		register(f.b)
		replies := 0
		for i := 0; i < 200; i++ {
			method := []string{"long", "short"}[i%2]
			f.a.GoMsg("b", method, note{Seq: i, Text: fmt.Sprint("t", i)}, func(r Result) {
				replies++
				var back note
				err := r.Decode(&back)
				check(t, i, method, back, err)
			})
		}
		f.clk.RunUntilIdle()
		if replies != 200 {
			t.Fatalf("%d replies, want 200", replies)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		clk := realClock{}
		net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(3))
		a, b := NewEndpoint(net.MustAddNode("a"), clk), NewEndpoint(net.MustAddNode("b"), clk)
		register(b)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < 120; i += 4 {
					method := []string{"long", "short"}[(i/4)%2]
					var back note
					err := a.CallMsg("b", method, note{Seq: i, Text: fmt.Sprint("t", i)}, &back, CallTimeout(10*time.Second))
					check(t, i, method, back, err)
				}
			}()
		}
		wg.Wait()
	})
}

// realClock is a vclock.Clock backed by the wall clock, for the test whose
// callers run on goroutines of their own, with no one to advance a
// simulated clock.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) AfterFunc(d time.Duration, f func()) vclock.Timer {
	return time.AfterFunc(d, f)
}
func (realClock) Schedule(d time.Duration, f func()) { time.AfterFunc(d, f) }

var _ vclock.Clock = realClock{}

func TestRealClockSmoke(t *testing.T) {
	c := realClock{}
	before := time.Now()
	if c.Now().Before(before.Add(-time.Second)) {
		t.Fatal("real clock far in the past")
	}
	var fired atomic.Bool
	tm := c.AfterFunc(time.Hour, func() { fired.Store(true) })
	if !tm.Stop() {
		t.Fatal("Stop on real timer = false")
	}
	if fired.Load() {
		t.Fatal("real timer fired despite Stop")
	}
}
