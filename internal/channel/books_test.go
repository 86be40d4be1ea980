package channel

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mocca/internal/netsim"
	"mocca/internal/wire"
)

// The books-balance script: one byte script drives three enrolled stacks on
// one network through everything that can happen to a frame, and a plain
// tally — kept here, knowing nothing of stacks or generations beyond the
// rules below — says what Fabric.Channels() must list after every step.
//
// The rules, which are the channel's contract: a frame is booked out by the
// sender once it is on the wire (an outbound veto books nothing but
// establishes the binding); the receiver books it as received, or as a
// discard with its bytes when it cannot be decoded, carries a stale epoch
// or is vetoed inbound — in that order, and a higher epoch is adopted
// before interceptors run; a restarted node's new stack starts unbound at
// epoch 1 and the channel's counters go on; the listed epoch is that of the
// newest generation holding the binding; and the stack a restart replaced
// can still send, from the epoch it had.

const booksNodes = 3

func booksAddr(i int) netsim.Address { return netsim.Address(fmt.Sprintf("n%d", i)) }

// pairBooks is the tally of one (local, remote) pair.
type pairBooks struct {
	ChannelInfo
	// epoch is the live stack's binding epoch, prev that of the stack the
	// last restart replaced; 0 means that generation has not bound.
	epoch, prev uint64
}

type books struct {
	*fabricNet
	live, prev [booksNodes]*Stack
	received   [booksNodes]int64 // envelopes that reached node i's receiver
	pairs      map[[2]int]*pairBooks
}

func newBooks(t *testing.T) *books {
	m := &books{fabricNet: newFabricNet(t), pairs: make(map[[2]int]*pairBooks)}
	for i := range m.live {
		m.restart(i)
	}
	return m
}

func (m *books) pair(i, j int) *pairBooks {
	p, ok := m.pairs[[2]int{i, j}]
	if !ok {
		p = &pairBooks{ChannelInfo: ChannelInfo{Local: string(booksAddr(i)), Remote: string(booksAddr(j))}}
		m.pairs[[2]int{i, j}] = p
	}
	return p
}

// restart opens a new stack on node i, as a site restart does.
func (m *books) restart(i int) {
	m.prev[i] = m.live[i]
	m.live[i] = m.open(booksAddr(i), WithInterceptor(DropIf(func(f *Frame) bool {
		return f.Dir == Outbound && f.Env.Kind == "veto.out" || f.Dir == Inbound && f.Env.Kind == "veto.in"
	})))
	m.live[i].Handle(func(netsim.Address, *wire.Envelope) { m.received[i]++ })
	for key, p := range m.pairs {
		if key[0] == i {
			p.prev, p.epoch = p.epoch, 0
		}
	}
}

// rebind re-establishes node i's binding toward j.
func (m *books) rebind(i, j int) {
	p := m.pair(i, j)
	p.epoch = max(p.epoch, 1) + 1
	p.Rebinds++
	if got := m.live[i].Rebind(booksAddr(j)); got != p.epoch {
		m.t.Fatalf("Rebind(%d→%d) = %d, tally says %d", i, j, got, p.epoch)
	}
}

// carry sends one frame of the given kind from node i — from its live
// stack, or late from the one the last restart replaced — to node j, lets
// the network deliver it and books what must have happened to it.
func (m *books) carry(late bool, i, j int, kind string, size int) {
	if late && m.prev[i] == nil {
		return
	}
	out := m.pair(i, j)
	stack, epoch := m.live[i], &out.epoch
	if late {
		stack, epoch = m.prev[i], &out.prev
	}
	*epoch = max(*epoch, 1)
	env := wire.NewEnvelope(kind, "", make([]byte, size))
	if kind == "undecodable" {
		env.Version = 9 // marshals, but no receiver accepts it
	}
	before := m.net.Stats().Bytes
	if err := stack.Send(booksAddr(j), env); err != nil {
		m.t.Fatalf("send %d→%d %s: %v", i, j, kind, err)
	}
	m.clk.RunUntilIdle()
	if kind == "veto.out" {
		return
	}
	wireBytes := m.net.Stats().Bytes - before
	out.FramesOut++
	out.BytesOut += wireBytes

	in := m.pair(j, i)
	in.epoch = max(in.epoch, 1)
	if kind != "undecodable" && *epoch > in.epoch {
		in.epoch = *epoch
		in.Rebinds++
	}
	if kind == "undecodable" || *epoch < in.epoch || kind == "veto.in" {
		in.DiscardsIn++
		in.DiscardBytesIn += wireBytes
		return
	}
	in.FramesIn++
	in.BytesIn += wireBytes
}

// check holds the fabric's reading and each live stack to the tally.
func (m *books) check(step string) {
	m.t.Helper()
	if err := m.fab.Reconcile(m.net.Stats()); err != nil {
		m.t.Fatalf("after %s: %v", step, err)
	}
	var want []ChannelInfo
	nodes := make(map[string]bool)
	var received [booksNodes]int64
	for key, p := range m.pairs {
		if p.epoch != 0 {
			p.Epoch = p.epoch
		} else if p.prev != 0 {
			p.Epoch = p.prev
		}
		want = append(want, p.ChannelInfo)
		nodes[p.Local] = true
		received[key[0]] += p.FramesIn
		if got := m.live[key[0]].Epoch(booksAddr(key[1])); got != max(p.epoch, 1) {
			m.t.Fatalf("after %s: live stack %s holds %s at epoch %d, tally says %d", step, p.Local, p.Remote, got, max(p.epoch, 1))
		}
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a].Local != want[b].Local {
			return want[a].Local < want[b].Local
		}
		return want[a].Remote < want[b].Remote
	})
	if got := m.fab.Channels(); !reflect.DeepEqual(got, want) {
		m.t.Fatalf("after %s:\n fabric: %+v\n tally:  %+v", step, got, want)
	}
	if tot := m.fab.Totals(); tot.Nodes != len(nodes) || tot.Channels != len(want) {
		m.t.Fatalf("after %s: totals %+v, tally has %d nodes and %d channels", step, tot, len(nodes), len(want))
	}
	if received != m.received {
		m.t.Fatalf("after %s: receivers saw %v envelopes, tally says %v", step, m.received, received)
	}
}

// checkBooksBalance runs a script, four bytes a step: op, node, peer, size.
func checkBooksBalance(t *testing.T, script []byte) {
	t.Helper()
	m := newBooks(t)
	for n := 0; len(script) >= 4; n++ {
		op, i, size := script[0]%9, int(script[1])%booksNodes, int(script[3])
		j := (i + 1 + int(script[2])%(booksNodes-1)) % booksNodes
		script = script[4:]
		step := fmt.Sprintf("step %d (op %d, %d→%d)", n, op, i, j)
		switch op {
		case 0, 1:
			m.carry(false, i, j, "plain", size)
		case 2:
			m.carry(false, i, j, "veto.out", size)
		case 3:
			m.carry(false, i, j, "veto.in", size)
		case 4:
			m.carry(false, i, j, "undecodable", size)
		case 5: // a stale frame: the peer has re-established, the sender has not heard
			m.rebind(j, i)
			m.carry(false, i, j, "plain", size)
		case 6:
			m.rebind(i, j)
		case 7:
			m.restart(i)
		case 8:
			m.carry(true, i, j, "plain", size)
		}
		m.check(step)
	}
}

func booksScript(seed int64, steps int) []byte {
	script := make([]byte, 4*steps)
	rand.New(rand.NewSource(seed)).Read(script)
	return script
}

// TestBooksBalance: whatever happens to frames, bindings and stacks, the
// binding records are the ledger — the fabric's reading of them equals a
// plain tally and reconciles with the network after every step.
func TestBooksBalance(t *testing.T) {
	for seed := int64(0); seed < 48; seed++ {
		checkBooksBalance(t, booksScript(seed, 150))
	}
	// One record under two writers: a's record of b is bumped by the sending
	// goroutine and, for b's echoes, by the one that delivers, beside a reader.
	t.Run("a sender beside the delivering goroutine", func(t *testing.T) {
		n := newFabricNet(t)
		a, b := n.open("a"), n.open("b")
		b.Handle(func(from netsim.Address, env *wire.Envelope) {
			if err := b.Send(from, wire.NewEnvelope("k", "", env.Body)); err != nil {
				t.Error(err)
			}
		})
		const frames = 500
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if err := a.Send("b", wire.NewEnvelope("k", "", make([]byte, i%40))); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				_ = n.fab.Channels()
				_ = a.Stats("b")
			}
		}()
		for i := 0; i < 100; i++ {
			n.clk.Advance(time.Millisecond)
		}
		wg.Wait()
		n.clk.RunUntilIdle()
		if err := n.fab.Reconcile(n.net.Stats()); err != nil {
			t.Fatal(err)
		}
		if st := a.Stats("b"); st.FramesOut != frames || st.FramesIn != frames || st.BytesIn != st.BytesOut {
			t.Fatalf("a's record of b = %+v", st)
		}
	})
}

func FuzzBooksBalance(f *testing.F) {
	for seed := int64(100); seed < 104; seed++ {
		f.Add(booksScript(seed, 40))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2048 {
			script = script[:2048]
		}
		checkBooksBalance(t, script)
	})
}
