// Package netsim simulates the wide-area network that a 1992-era open CSCW
// deployment would span: multiple sites joined by links of differing
// latency, jitter, loss and bandwidth, with node crashes and network
// partitions injectable at any point.
//
// The simulator is deterministic when driven by a vclock.Simulated clock and
// a fixed seed: message delivery is scheduled as discrete events, loss and
// jitter come from a seeded PRNG, and same-instant deliveries fire in
// registration order. All higher substrates (rpc, mhs, rtc) run on top of
// this package, so every distributed behaviour in the repository is
// reproducible on a single machine.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mocca/internal/vclock"
)

// Address names a node on the simulated network.
type Address string

// Message is a datagram exchanged between nodes.
type Message struct {
	From    Address
	To      Address
	Kind    string // application-level discriminator, e.g. "rpc.request"
	Payload []byte
	// Size overrides len(Payload) for bandwidth accounting when non-zero,
	// letting callers model large bodies without allocating them.
	Size int
}

// size returns the bandwidth-relevant size of the message in bytes.
func (m Message) size() int {
	if m.Size > 0 {
		return m.Size
	}
	if len(m.Payload) > 0 {
		return len(m.Payload)
	}
	return 64 // envelope floor: headers are never free
}

// Handler consumes a delivered message.
type Handler func(Message)

// LinkProfile describes the transmission characteristics of a directed link.
type LinkProfile struct {
	// Latency is the fixed propagation delay.
	Latency time.Duration
	// Jitter is the maximum additional random delay (uniform in [0,Jitter]).
	Jitter time.Duration
	// Loss is the probability in [0,1] that a message is dropped.
	Loss float64
	// Bandwidth in bytes per second; zero means infinite.
	Bandwidth int
	// FIFO forces per-(src,dst) in-order delivery, as a transport
	// connection would.
	FIFO bool
}

// transitDelay computes the delay for a message of n bytes using the given
// random source.
func (p LinkProfile) transitDelay(n int, rng *rand.Rand) time.Duration {
	d := p.Latency
	if p.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(p.Jitter) + 1))
	}
	if p.Bandwidth > 0 {
		d += time.Duration(float64(n) / float64(p.Bandwidth) * float64(time.Second))
	}
	return d
}

// Stats aggregates network-wide counters.
type Stats struct {
	Sent      int64 `metric:"sent"`
	Delivered int64 `metric:"delivered"`
	Dropped   int64 `metric:"dropped"` // lost to link loss
	Blocked   int64 `metric:"blocked"` // rejected by partition or down node
	Bytes     int64 `metric:"bytes"`   // bytes delivered
}

// Errors returned by Send.
var (
	ErrUnknownNode = errors.New("netsim: unknown node")
	ErrNodeDown    = errors.New("netsim: node is down")
	ErrNoHandler   = errors.New("netsim: destination has no handler")
)

// Option configures a Network.
type Option func(*Network)

// WithClock sets the time base. Defaults to a simulated clock at a fixed
// epoch.
func WithClock(c vclock.Clock) Option {
	return func(n *Network) { n.clock = c }
}

// WithSeed sets the PRNG seed for loss and jitter decisions.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// WithDefaultLink sets the profile used for node pairs without an explicit
// link.
func WithDefaultLink(p LinkProfile) Option {
	return func(n *Network) { n.defaultLink = p }
}

// DefaultEpoch is the simulated start instant: the week of ICDCS 1992.
var DefaultEpoch = time.Date(1992, time.June, 9, 9, 0, 0, 0, time.UTC)

// Network is the simulated internetwork. Create with New.
type Network struct {
	clock        vclock.Clock
	mu           sync.Mutex
	rng          *rand.Rand
	nodes        map[Address]*Node
	links        map[linkKey]LinkProfile
	defaultLink  LinkProfile
	partition    map[Address]int // group id per address; absent = group 0
	partitioned  bool
	lastFIFO     map[linkKey]time.Time
	healHooks    []func()
	recoverHooks []func(Address)
	stats        Stats
}

type linkKey struct{ from, to Address }

// New creates a network. With no options it uses a simulated clock starting
// at DefaultEpoch, seed 1, and a 5ms ± 0ms lossless default link.
func New(opts ...Option) *Network {
	n := &Network{
		nodes:       make(map[Address]*Node),
		links:       make(map[linkKey]LinkProfile),
		lastFIFO:    make(map[linkKey]time.Time),
		partition:   make(map[Address]int),
		defaultLink: LinkProfile{Latency: 5 * time.Millisecond},
	}
	for _, opt := range opts {
		opt(n)
	}
	if n.clock == nil {
		n.clock = vclock.NewSimulated(DefaultEpoch)
	}
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(1))
	}
	return n
}

// Clock returns the network's time base.
func (n *Network) Clock() vclock.Clock { return n.clock }

// AddNode registers a node with the given address.
func (n *Network) AddNode(addr Address) (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[addr]; ok {
		return nil, fmt.Errorf("netsim: node %q already exists", addr)
	}
	nd := &Node{net: n, addr: addr, up: true}
	n.nodes[addr] = nd
	return nd, nil
}

// MustAddNode is AddNode panicking on error; for tests and examples.
func (n *Network) MustAddNode(addr Address) *Node {
	nd, err := n.AddNode(addr)
	if err != nil {
		panic(err)
	}
	return nd
}

// Node returns the node with the given address.
func (n *Network) Node(addr Address) (*Node, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[addr]
	return nd, ok
}

// Nodes returns all registered addresses (order unspecified).
func (n *Network) Nodes() []Address {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Address, 0, len(n.nodes))
	for a := range n.nodes {
		out = append(out, a)
	}
	return out
}

// SetLink installs a symmetric link profile between a and b.
func (n *Network) SetLink(a, b Address, p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{a, b}] = p
	n.links[linkKey{b, a}] = p
}

// SetDirectedLink installs an asymmetric link profile from a to b only.
func (n *Network) SetDirectedLink(a, b Address, p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{a, b}] = p
}

// Partition splits the network into the given groups; traffic crosses group
// boundaries only by being blocked. Addresses not listed fall into an
// implicit extra group.
func (n *Network) Partition(groups ...[]Address) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[Address]int)
	for i, g := range groups {
		for _, a := range g {
			n.partition[a] = i + 1
		}
	}
	n.partitioned = true
}

// Heal removes any partition, prunes stale FIFO bookkeeping, and runs any
// OnHeal hooks (e.g. replication kicking an immediate sync round).
func (n *Network) Heal() {
	n.mu.Lock()
	n.partition = make(map[Address]int)
	n.partitioned = false
	n.pruneFIFOLocked()
	hooks := append([]func(){}, n.healHooks...)
	n.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// pruneFIFOLocked drops FIFO high-water marks that are already in the
// past: they can no longer order anything (any new send computes a later
// delivery), they only make the map grow without bound across long
// partition/crash scenarios. Marks still in the future guard in-flight
// messages and are kept, so FIFO ordering is never violated.
func (n *Network) pruneFIFOLocked() {
	now := n.clock.Now()
	for key, last := range n.lastFIFO {
		if !last.After(now) {
			delete(n.lastFIFO, key)
		}
	}
}

// OnHeal registers a hook invoked (outside the network lock) every time
// Heal is called.
func (n *Network) OnHeal(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.healHooks = append(n.healHooks, fn)
}

// OnRecover registers a hook invoked (outside the network lock) whenever
// a crashed node comes back up — the other moment, besides a heal, when
// dormant reconciliation work must restart.
func (n *Network) OnRecover(fn func(Address)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.recoverHooks = append(n.recoverHooks, fn)
}

// Stats returns a snapshot of network counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// reachableLocked reports whether a partition separates from and to.
func (n *Network) reachableLocked(from, to Address) bool {
	if !n.partitioned {
		return true
	}
	return n.partition[from] == n.partition[to]
}

// send schedules delivery of msg from a node. Returns an error for
// conditions a sender would observe locally (unknown destination is NOT one
// of them in a real network, but surfacing it keeps tests honest).
func (n *Network) send(msg Message) error {
	n.mu.Lock()
	dst, ok := n.nodes[msg.To]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownNode, msg.To)
	}
	src, ok := n.nodes[msg.From]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownNode, msg.From)
	}
	if !src.up {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNodeDown, msg.From)
	}
	n.stats.Sent++

	if !n.reachableLocked(msg.From, msg.To) {
		n.stats.Blocked++
		n.mu.Unlock()
		return nil // silently lost, as on a real partition
	}
	key := linkKey{msg.From, msg.To}
	profile, ok := n.links[key]
	if !ok {
		profile = n.defaultLink
	}
	if profile.Loss > 0 && n.rng.Float64() < profile.Loss {
		n.stats.Dropped++
		n.mu.Unlock()
		return nil
	}
	delay := profile.transitDelay(msg.size(), n.rng)
	deliverAt := n.clock.Now().Add(delay)
	if profile.FIFO {
		if last, ok := n.lastFIFO[key]; ok && deliverAt.Before(last) {
			deliverAt = last
		}
		n.lastFIFO[key] = deliverAt
	}
	n.mu.Unlock()

	f, _ := inFlightPool.Get().(*inFlight)
	if f == nil {
		f = new(inFlight)
		f.run = f.arrive
	}
	f.net, f.dst, f.msg = n, dst, msg
	n.clock.Schedule(deliverAt.Sub(n.clock.Now()), f.run)
	return nil
}

// inFlight is a message between send and delivery, pooled; run is bound once,
// and the clock recycles the event it schedules, so a delivery allocates
// nothing.
type inFlight struct {
	net *Network
	dst *Node
	msg Message
	run func()
}

var inFlightPool sync.Pool

// arrive is the delivery event: the record goes back to the pool before the
// handler runs, so the sends the handler makes can reuse it.
func (f *inFlight) arrive() {
	n, dst, msg := f.net, f.dst, f.msg
	f.net, f.dst, f.msg = nil, nil, Message{}
	inFlightPool.Put(f)
	n.deliver(dst, msg)
}

// deliver hands the message to the destination handler if the node is still
// up and reachable at delivery time (a partition raised mid-flight loses
// in-flight traffic, like a cut cable).
func (n *Network) deliver(dst *Node, msg Message) {
	n.mu.Lock()
	if !dst.up {
		n.stats.Blocked++
		n.mu.Unlock()
		return
	}
	if !n.reachableLocked(msg.From, msg.To) {
		n.stats.Blocked++
		n.mu.Unlock()
		return
	}
	h := dst.handler
	n.stats.Delivered++
	n.stats.Bytes += int64(msg.size())
	n.mu.Unlock()
	if h != nil {
		h(msg)
	}
}

// Node is an endpoint on the network.
type Node struct {
	net  *Network
	addr Address
	// guarded by net.mu
	up      bool
	handler Handler
}

// Addr returns the node's address.
func (nd *Node) Addr() Address { return nd.addr }

// Handle installs the inbound message handler. Handlers run on the clock's
// event goroutine; they must not block for long.
func (nd *Node) Handle(h Handler) {
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	nd.handler = h
}

// Send transmits a message from this node. The From field is forced to the
// node's own address.
func (nd *Node) Send(msg Message) error {
	msg.From = nd.addr
	return nd.net.send(msg)
}

// SetDown marks the node crashed (true) or recovered (false). A down node
// neither sends nor receives; in-flight messages to it are lost. A crash
// also prunes stale FIFO ordering state, keeping the bookkeeping from
// growing without bound across long crash/recover scenarios; a recovery
// fires the network's OnRecover hooks.
func (nd *Node) SetDown(down bool) {
	nd.net.mu.Lock()
	recovered := !nd.up && !down
	nd.up = !down
	if down {
		nd.net.pruneFIFOLocked()
	}
	var hooks []func(Address)
	if recovered {
		hooks = append(hooks, nd.net.recoverHooks...)
	}
	nd.net.mu.Unlock()
	for _, fn := range hooks {
		fn(nd.addr)
	}
}

// Up reports whether the node is running.
func (nd *Node) Up() bool {
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	return nd.up
}
