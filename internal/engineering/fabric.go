// Package engineering keeps the engineering viewpoint's books: Fabric
// mirrors every live channel binding of a deployment — which interfaces
// are bound, at what epoch, and the frames and bytes each has carried —
// and reconciles those totals against the network's own counters. The
// channels themselves (stub, binder, protocol object, rebinding on
// migration) are internal/channel; this package only observes them.
package engineering

import (
	"fmt"
	"sort"
	"strings"
	"sync"
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

// FabricTotals aggregates a fabric's channel counters.
type FabricTotals struct {
	Nodes          int
	Channels       int
	FramesOut      int64
	FramesIn       int64
	BytesOut       int64
	BytesIn        int64
	DiscardsIn     int64
	DiscardBytesIn int64
}

// Fabric mirrors the live channel stacks of a running deployment into
// engineering-viewpoint bookkeeping: every network address that opened a
// channel is a node, and every binding a stack establishes becomes a
// channel record here. It implements the channel package's
// Observer contract structurally (string addresses, int sizes), so the
// engineering layer needs no dependency on the transport packages.
//
// Because the channel stack is the only path to the network, a fabric
// observing every stack sees every frame: Reconcile checks its totals
// against netsim's own counters and any disagreement means traffic
// bypassed the engineering channel.
type Fabric struct {
	mu       sync.Mutex
	nodes    map[string]struct{} // addresses with at least one local channel
	channels map[fabricKey]*ChannelInfo
}

type fabricKey struct{ local, remote string }

// NewFabric creates an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{
		nodes:    make(map[string]struct{}),
		channels: make(map[fabricKey]*ChannelInfo),
	}
}

// channelLocked ensures the record for a (local, remote) binding. Caller
// holds f.mu.
func (f *Fabric) channelLocked(local, remote string) *ChannelInfo {
	key := fabricKey{local, remote}
	c, ok := f.channels[key]
	if !ok {
		f.nodes[local] = struct{}{}
		c = &ChannelInfo{Local: local, Remote: remote, Epoch: 1}
		f.channels[key] = c
	}
	return c
}

// ChannelBound records a newly established binding at the given epoch.
func (f *Fabric) ChannelBound(local, remote string, epoch uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.channelLocked(local, remote)
	c.Epoch = epoch
}

// ChannelRebound records an epoch change (migration/failover rebinding).
func (f *Fabric) ChannelRebound(local, remote string, epoch uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.channelLocked(local, remote)
	c.Epoch = epoch
	c.Rebinds++
}

// FrameSent records one frame put on the wire by local toward remote.
func (f *Fabric) FrameSent(local, remote string, wireBytes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.channelLocked(local, remote)
	c.FramesOut++
	c.BytesOut += int64(wireBytes)
}

// FrameReceived records one frame delivered to local from remote.
func (f *Fabric) FrameReceived(local, remote string, wireBytes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.channelLocked(local, remote)
	c.FramesIn++
	c.BytesIn += int64(wireBytes)
}

// FrameDiscarded records a frame the network delivered to local but the
// channel stack dropped before the receiver.
func (f *Fabric) FrameDiscarded(local, remote string, wireBytes int, _ string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.channelLocked(local, remote)
	c.DiscardsIn++
	c.DiscardBytesIn += int64(wireBytes)
}

// Channels snapshots every live channel, sorted by (local, remote).
func (f *Fabric) Channels() []ChannelInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ChannelInfo, 0, len(f.channels))
	for _, c := range f.channels {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Local != out[j].Local {
			return out[i].Local < out[j].Local
		}
		return out[i].Remote < out[j].Remote
	})
	return out
}

// Totals aggregates all channel counters.
func (f *Fabric) Totals() FabricTotals {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := FabricTotals{Nodes: len(f.nodes), Channels: len(f.channels)}
	for _, c := range f.channels {
		t.FramesOut += c.FramesOut
		t.FramesIn += c.FramesIn
		t.BytesOut += c.BytesOut
		t.BytesIn += c.BytesIn
		t.DiscardsIn += c.DiscardsIn
		t.DiscardBytesIn += c.DiscardBytesIn
	}
	return t
}

// TotalsFor aggregates the counters of channels whose local address has
// the given prefix — the per-service slice of the fabric. With every
// subsystem on its own node-address prefix (mta-*, repl-*, user-*), this
// is how e.g. anti-entropy sync traffic is isolated from the rest of the
// engineering bookkeeping.
func (f *Fabric) TotalsFor(localPrefix string) FabricTotals {
	f.mu.Lock()
	defer f.mu.Unlock()
	var t FabricTotals
	nodes := make(map[string]bool)
	for _, c := range f.channels {
		if !strings.HasPrefix(c.Local, localPrefix) {
			continue
		}
		if !nodes[c.Local] {
			nodes[c.Local] = true
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

// Reconcile checks the fabric's view against the network's own counters
// (netsim.Stats fields, passed positionally so this package stays free of
// transport dependencies). Sent must equal the fabric's frames out —
// every transmission went through an observed channel — and every frame
// the network delivered must be accounted for by the channel layer,
// either received or explicitly discarded (stale epoch, decode error,
// interceptor veto). A mismatch means traffic bypassed the channel stack.
func (f *Fabric) Reconcile(netSent, netDelivered, netBytes int64) error {
	t := f.Totals()
	if t.FramesOut != netSent {
		return fmt.Errorf("engineering: fabric saw %d frames out, network sent %d", t.FramesOut, netSent)
	}
	if in := t.FramesIn + t.DiscardsIn; in != netDelivered {
		return fmt.Errorf("engineering: fabric accounted %d delivered frames (%d received + %d discarded), network delivered %d",
			in, t.FramesIn, t.DiscardsIn, netDelivered)
	}
	if in := t.BytesIn + t.DiscardBytesIn; in != netBytes {
		return fmt.Errorf("engineering: fabric accounted %d delivered bytes, network delivered %d", in, netBytes)
	}
	return nil
}
