package channel

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mocca/internal/netsim"
	"mocca/internal/wire"
)

// ChannelInfo describes one live transport channel as the engineering
// viewpoint records it: the bound interfaces, the binding epoch, and the
// traffic the channel has carried.
type ChannelInfo struct {
	Local, Remote string
	Epoch         uint64
	Rebinds       int64
	FramesOut     int64
	FramesIn      int64
	BytesOut      int64
	BytesIn       int64
	// DiscardsIn/DiscardBytesIn count frames the network delivered but the
	// channel stack dropped before the receiver (decode errors, stale
	// epochs, interceptor vetoes).
	DiscardsIn     int64
	DiscardBytesIn int64
}

// FabricTotals aggregates a fabric's channel counters. The metric tags
// name what Deployment.Metrics exports of it (see observe.Project).
type FabricTotals struct {
	Nodes          int
	Channels       int   `metric:"open,gauge"`
	FramesOut      int64 `metric:"frames_out"`
	FramesIn       int64 `metric:"frames_in"`
	BytesOut       int64 `metric:"bytes_out"`
	BytesIn        int64 `metric:"bytes_in"`
	DiscardsIn     int64 `metric:"discards_in"`
	DiscardBytesIn int64
}

// Fabric is the engineering viewpoint's view of a running deployment: the
// set of its channel stacks, read as one ledger. It keeps no books of its
// own — every answer walks the stacks' binding records at call time — so
// a frame is counted once, where it crosses the stack. Every address with
// a binding is a node and every binding a channel.
//
// Because the channel stack is the only path to the network, a fabric
// holding every stack sees every frame: Reconcile checks the records
// against netsim's own counters and any disagreement means traffic
// bypassed the engineering channel.
type Fabric struct {
	mu sync.Mutex
	// stacks holds, per local address, every stack that was opened on it,
	// oldest first: a restart opens a new stack on the node of the one it
	// replaces, and the channel's books are the sum over generations.
	stacks map[netsim.Address][]*Stack
}

// NewFabric creates an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{stacks: make(map[netsim.Address][]*Stack)}
}

// enrol adds a stack (see WithFabric). A stack it replaces stays, because
// whatever still holds it can still send; but the node delivers to the new
// one from here on, so the old one lets go of its receiver and of the
// endpoint, handlers and replica behind it.
func (f *Fabric) enrol(s *Stack) {
	f.mu.Lock()
	defer f.mu.Unlock()
	gens := f.stacks[s.Addr()]
	if len(gens) > 0 {
		gens[len(gens)-1].Handle(nil)
	}
	f.stacks[s.Addr()] = append(gens, s)
}

// channels reads one record per (local, remote) binding whose local
// address has the prefix, grouped by local address: counters summed over
// the address's generations, epoch from the newest that holds the binding.
func (f *Fabric) channels(localPrefix string) []ChannelInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []ChannelInfo
	for local, gens := range f.stacks {
		if !strings.HasPrefix(string(local), localPrefix) {
			continue
		}
		at := make(map[netsim.Address]int) // remote → index in out
		for _, s := range gens {
			s.mu.Lock()
			for remote, b := range s.bindings {
				i, ok := at[remote]
				if !ok {
					i = len(out)
					at[remote] = i
					out = append(out, ChannelInfo{Local: string(local), Remote: string(remote)})
				}
				c := &out[i]
				c.Epoch = b.epoch
				c.Rebinds += b.Rebinds
				c.FramesOut += b.FramesOut
				c.FramesIn += b.FramesIn
				c.BytesOut += b.BytesOut
				c.BytesIn += b.BytesIn
				c.DiscardsIn += b.DroppedIn + b.StaleIn + b.DecodeErrors
				c.DiscardBytesIn += b.discardedBytes
			}
			s.mu.Unlock()
		}
	}
	return out
}

// Channels snapshots every live channel, sorted by (local, remote).
func (f *Fabric) Channels() []ChannelInfo {
	out := f.channels("")
	sort.Slice(out, func(i, j int) bool {
		if out[i].Local != out[j].Local {
			return out[i].Local < out[j].Local
		}
		return out[i].Remote < out[j].Remote
	})
	return out
}

// Totals aggregates all channel counters.
func (f *Fabric) Totals() FabricTotals { return f.TotalsFor("") }

// TotalsFor aggregates the counters of channels whose local address has
// the given prefix — the per-service slice of the fabric. With every
// subsystem on its own node-address prefix (mta-*, repl-*, user-*), this
// is how e.g. anti-entropy sync traffic is isolated from the rest of the
// engineering bookkeeping.
func (f *Fabric) TotalsFor(localPrefix string) FabricTotals {
	var t FabricTotals
	var last string
	for _, c := range f.channels(localPrefix) {
		if c.Local != last {
			last = c.Local
			t.Nodes++
		}
		t.Channels++
		t.FramesOut += c.FramesOut
		t.FramesIn += c.FramesIn
		t.BytesOut += c.BytesOut
		t.BytesIn += c.BytesIn
		t.DiscardsIn += c.DiscardsIn
		t.DiscardBytesIn += c.DiscardBytesIn
	}
	return t
}

// MethodTraffic is one line of a byte ledger: the frames sent under an rpc
// method, and their bytes.
type MethodTraffic struct {
	Method        string
	Frames, Bytes int64
}

// Methods reads the byte ledgers of the stacks whose local address has the
// given prefix, summed by the method their frames name, in the order of
// wire's static string table; frames naming a method the table lacks, or
// none, sum under "". A method with no frames is left out. Every frame a
// stack sends is on its ledger, so the lines sum to TotalsFor's FramesOut
// and BytesOut.
func (f *Fabric) Methods(localPrefix string) []MethodTraffic {
	var sum [wire.StaticStrings + 1]MethodTraffic
	f.mu.Lock()
	for local, gens := range f.stacks {
		if !strings.HasPrefix(string(local), localPrefix) {
			continue
		}
		for _, s := range gens {
			s.mu.Lock()
			for i, t := range s.sent {
				sum[i].Frames += t.Frames
				sum[i].Bytes += t.Bytes
			}
			s.mu.Unlock()
		}
	}
	f.mu.Unlock()
	var out []MethodTraffic
	for i, t := range sum {
		if t.Frames == 0 {
			continue
		}
		if i < wire.StaticStrings {
			t.Method = wire.StaticString(i)
		}
		out = append(out, t)
	}
	return out
}

// Reconcile checks the binding records against the network's own counters.
// Sent must equal the fabric's frames out — every transmission went
// through an enrolled stack — and every frame the network delivered must
// be accounted for by the channel layer, either received or explicitly
// discarded (stale epoch, decode error, interceptor veto). A mismatch
// means traffic bypassed the channel stack.
func (f *Fabric) Reconcile(ns netsim.Stats) error {
	t := f.Totals()
	if t.FramesOut != ns.Sent {
		return fmt.Errorf("channel: fabric saw %d frames out, network sent %d", t.FramesOut, ns.Sent)
	}
	if in := t.FramesIn + t.DiscardsIn; in != ns.Delivered {
		return fmt.Errorf("channel: fabric accounted %d delivered frames (%d received + %d discarded), network delivered %d",
			in, t.FramesIn, t.DiscardsIn, ns.Delivered)
	}
	if in := t.BytesIn + t.DiscardBytesIn; in != ns.Bytes {
		return fmt.Errorf("channel: fabric accounted %d delivered bytes, network delivered %d", in, ns.Bytes)
	}
	return nil
}
