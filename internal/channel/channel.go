// Package channel implements the ODP engineering-viewpoint channel that
// figure 4 of the paper places between the CSCW environment and the
// network: every computational binding compiles down to a stack of
//
//	client stub  — frames wire.Envelopes onto bytes (and back)
//	binder       — keeps each binding's record: its epoch (rebinds after
//	               migration/failure) and what it has carried
//	protocol     — owns the netsim.Node and its delivery semantics
//
// with a composable interceptor chain threaded through the stack for the
// transparency functions the paper wants the infrastructure (not the
// application) to provide: tracing, per-channel accounting, transparency
// declarations, failure injection.
//
// All production traffic in the repository — rpc interrogations and
// announcements, and through them MHS transfers, conference fan-out,
// directory and trader operations, and the information replicas'
// anti-entropy sync — traverses a Stack; nothing above this package calls
// netsim.Node.Send directly. That single choke point is what lets
// interceptors observe 100% of traffic and makes the binding records the
// ledger: Fabric reads them, across a deployment's stacks, and reconciles
// them exactly with netsim.Stats.
// ARCHITECTURE.md places this package in the viewpoint map and traces one
// write through the full stack.
package channel

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"mocca/internal/netsim"
	"mocca/internal/observe"
	"mocca/internal/odp"
	"mocca/internal/wire"
)

// Envelope headers owned by the channel stack.
const (
	// EpochHeader carries the sender's binding epoch. Absent means epoch 1
	// (the initial binding), so steady-state frames pay no extra bytes.
	EpochHeader = "ch.epoch"
	// MaskHeader declares the transparencies this channel provides, in
	// odp.Mask string form. Stamped only when the stack is configured with
	// transparencies.
	MaskHeader = "ch.transparencies"
)

// Direction distinguishes the two ways a frame crosses the stack.
type Direction int

// Frame directions.
const (
	Outbound Direction = iota + 1
	Inbound
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Outbound:
		return "outbound"
	case Inbound:
		return "inbound"
	default:
		return fmt.Sprintf("direction(%d)", int(d))
	}
}

// Frame is one envelope crossing the stack, as interceptors observe it.
// Outbound frames are intercepted before the stub marshals; inbound frames
// after the stub unmarshals — interceptors always see structured envelopes,
// never raw bytes. The *Frame an interceptor receives is pooled, and so may
// be the envelope it points at: both are valid only for the duration of the
// call, never to be retained.
type Frame struct {
	Dir    Direction
	Local  netsim.Address
	Remote netsim.Address
	Env    *wire.Envelope
}

// ErrDropFrame is the sentinel an interceptor returns to discard a frame
// silently, exactly as link loss would: the sender sees success and the
// frame never reaches the wire (outbound) or the layer above (inbound).
var ErrDropFrame = errors.New("channel: frame dropped by interceptor")

// Interceptor observes or vetoes frames. Returning nil passes the frame
// on; ErrDropFrame discards it silently; any other error aborts an
// outbound send (surfaced to the caller) or discards an inbound frame.
// Interceptors run in registration order on both directions.
type Interceptor func(*Frame) error

// Receiver consumes inbound envelopes that survived the stack. The envelope
// is lent for the upcall only: the stack zeroes and reuses it once the
// receiver returns. Its strings and Body (which aliases the frame) may be kept.
type Receiver func(from netsim.Address, env *wire.Envelope)

// Stats counts one binding's traffic (local node ↔ one remote address).
type Stats struct {
	FramesOut, FramesIn   int64
	BytesOut, BytesIn     int64
	DroppedOut, DroppedIn int64 // vetoed by interceptors
	StaleIn               int64 // discarded by the binder: stale epoch
	DecodeErrors          int64 // undecodable frames from this remote
	Rebinds               int64 // epoch changes observed or initiated
}

// binding is the binder's record of one binding, and the only place its
// state is kept: the epoch and what the binding has carried. Epochs start
// at 1 and only move forward; Rebind bumps the local view and the peer
// adopts the higher epoch from the next frame's EpochHeader.
type binding struct {
	epoch uint64
	Stats
	// discardedBytes sizes the frames DroppedIn, StaleIn and DecodeErrors
	// count — delivered by the network, dropped before the receiver — so
	// the books still balance against the network's delivered bytes.
	discardedBytes int64
}

// observe reconciles an inbound frame's epoch with the binding: higher
// adopts (the peer rebound), lower is stale, equal is steady state.
func (b *binding) observe(epoch uint64) (stale bool) {
	if epoch > b.epoch {
		b.epoch = epoch
		b.Rebinds++
	}
	return epoch < b.epoch
}

// discard counts, under reason, a delivered frame the stack dropped.
func (b *binding) discard(reason *int64, size int64) {
	*reason++
	b.discardedBytes += size
}

// namedInterceptor pairs an interceptor with the name drops are
// attributed to in telemetry.
type namedInterceptor struct {
	name string
	fn   Interceptor
}

// Option configures a Stack.
type Option func(*Stack)

// WithInterceptor appends an interceptor to the chain. It is attributed
// by chain position ("#0", "#1", …) in drop telemetry; use
// WithNamedInterceptor when the name matters.
func WithInterceptor(i Interceptor) Option {
	return func(s *Stack) { WithNamedInterceptor(fmt.Sprintf("#%d", len(s.interceptors)), i)(s) }
}

// WithNamedInterceptor appends an interceptor under an explicit name.
// When the interceptor vetoes a frame, the drop is counted (and, for
// traced frames, the drop span is attributed) under this name — so
// failure-injection experiments stay visible in telemetry instead of
// vanishing.
func WithNamedInterceptor(name string, i Interceptor) Option {
	return func(s *Stack) {
		s.interceptors = append(s.interceptors, namedInterceptor{name: name, fn: i})
	}
}

// WithTelemetry attaches the deployment telemetry plane. The stack then
// records interceptor drops in the metrics registry under the dropping
// interceptor's name, and closes the span of any traced frame an
// interceptor discards with a "drop" status.
func WithTelemetry(tel *observe.Telemetry) Option {
	return func(s *Stack) {
		if tel != nil {
			s.tracer = tel.Tracer
			s.metrics = tel.Metrics
		}
	}
}

// TracingInterceptor returns the channel-stack tracing interceptor: it
// records every traced frame crossing the stack as an instantaneous
// span ("frame.out:<kind>" / "frame.in:<kind>") attributed to the local
// node, parented under the context the frame carries. Untraced frames
// cost one field check.
func TracingInterceptor(tr *observe.Tracer) Interceptor {
	return func(f *Frame) error {
		if !f.Env.Trace.IsZero() && tr.On() {
			name := "frame.out:" + f.Env.Kind
			if f.Dir == Inbound {
				name = "frame.in:" + f.Env.Kind
			}
			tr.Event(name, string(f.Local), f.Env.Trace, "",
				observe.Attr{Key: "remote", Value: string(f.Remote)})
		}
		return nil
	}
}

// WithFabric enrols the stack in a deployment's fabric, which from then on
// reads the stack's binding records.
func WithFabric(f *Fabric) Option { return f.enrol }

// WithTransparencies declares the transparencies this channel provides;
// outbound frames carry the declaration in MaskHeader so peers (and
// interceptors) can check a binding's guarantees against requirements.
func WithTransparencies(m odp.Mask) Option {
	return func(s *Stack) {
		if m != 0 {
			s.maskString = m.String()
		}
	}
}

// Stack is the engineering channel bound to one network node. Create with
// New; exactly one Stack owns a node.
type Stack struct {
	proto        protocol
	interceptors []namedInterceptor
	tracer       *observe.Tracer
	metrics      *observe.Registry
	maskString   string // the declared transparencies, as MaskHeader carries them

	mu       sync.Mutex
	bindings map[netsim.Address]*binding
	recv     Receiver

	// framePool recycles the Frame handed to interceptors: passing a
	// pointer to dynamic funcs forces a heap escape per frame, which a
	// pool amortises to zero steady-state allocations.
	framePool sync.Pool
}

// New builds a channel stack over the node and installs the protocol
// object as the node's network handler.
func New(node *netsim.Node, opts ...Option) *Stack {
	s := &Stack{
		proto:    protocol{node: node},
		bindings: make(map[netsim.Address]*binding),
	}
	for _, opt := range opts {
		opt(s)
	}
	node.Handle(s.onMessage)
	return s
}

// Addr returns the local node address.
func (s *Stack) Addr() netsim.Address { return s.proto.node.Addr() }

// Handle installs the receiver for inbound envelopes. One receiver per
// stack; the layer above (rpc) demultiplexes by envelope kind.
func (s *Stack) Handle(r Receiver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recv = r
}

// Send pushes an envelope down the stack toward remote: interceptors, then
// the binder stamps the binding epoch, then the client stub marshals, then
// the protocol object transmits. Send keeps no reference to env or its Body
// once it returns, so the caller may reuse it; the binder may have stamped
// headers on it.
func (s *Stack) Send(to netsim.Address, env *wire.Envelope) error {
	if len(s.interceptors) > 0 {
		f := s.frame(Outbound, to, env)
		for _, ic := range s.interceptors {
			if err := ic.fn(f); err != nil {
				s.framePool.Put(f)
				s.mu.Lock()
				s.bindingLocked(to).DroppedOut++
				s.mu.Unlock()
				s.frameDropped(ic.name, Outbound, env)
				if errors.Is(err, ErrDropFrame) {
					return nil
				}
				return err
			}
		}
		s.framePool.Put(f)
	}

	// Binder, stub and protocol object run under the one lock, so the
	// record is found once and counts the frame only once it is on the wire.
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bindingLocked(to)
	if b.epoch > 1 {
		env.SetHeader(EpochHeader, strconv.FormatUint(b.epoch, 10))
	}
	if s.maskString != "" {
		env.SetHeader(MaskHeader, s.maskString)
	}
	data, err := wire.Marshal(env) // the client stub: envelope to frame
	if err != nil {
		return err
	}
	if err := s.proto.transmit(to, env.Kind, data); err != nil {
		return err
	}
	b.FramesOut++
	b.BytesOut += int64(len(data))
	return nil
}

// Rebind bumps the binding epoch toward remote — called after the remote
// end migrated or failed over, so the peer's binder observes the new epoch
// on the next frame and re-establishes. Returns the new epoch.
func (s *Stack) Rebind(remote netsim.Address) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bindingLocked(remote)
	b.epoch++
	b.Rebinds++
	return b.epoch
}

// Epoch returns the current binding epoch toward remote (1 if unbound).
func (s *Stack) Epoch(remote netsim.Address) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.bindings[remote]; ok {
		return b.epoch
	}
	return 1
}

// Stats returns a snapshot of the binding counters toward remote.
func (s *Stack) Stats(remote netsim.Address) Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.bindings[remote]; ok {
		return b.Stats
	}
	return Stats{}
}

// bindingLocked returns the record of the binding toward remote,
// establishing it at epoch 1 on first use. Caller holds s.mu.
func (s *Stack) bindingLocked(remote netsim.Address) *binding {
	b, ok := s.bindings[remote]
	if !ok {
		b = &binding{epoch: 1}
		s.bindings[remote] = b
	}
	return b
}

// frame checks a pooled Frame out and fills it for one interceptor pass.
// Interceptors must not retain the pointer past their return.
func (s *Stack) frame(dir Direction, remote netsim.Address, env *wire.Envelope) *Frame {
	f, _ := s.framePool.Get().(*Frame)
	if f == nil {
		f = new(Frame)
	}
	*f = Frame{Dir: dir, Local: s.proto.node.Addr(), Remote: remote, Env: env}
	return f
}

// frameDropped records an interceptor veto in telemetry: a counter
// under the dropping interceptor's name, and — when the frame carried a
// trace — a span closed with "drop" status, so the frame's fate is
// visible in the trace instead of silently vanishing.
func (s *Stack) frameDropped(interceptor string, dir Direction, env *wire.Envelope) {
	if s.metrics != nil {
		s.metrics.Counter("mocca.channel.interceptor_drops",
			observe.L("interceptor", interceptor, "dir", dir.String())...).Inc()
	}
	if !env.Trace.IsZero() && s.tracer.On() {
		s.tracer.Event("frame.drop:"+env.Kind, string(s.proto.node.Addr()), env.Trace, "drop",
			observe.Attr{Key: "interceptor", Value: interceptor},
			observe.Attr{Key: "dir", Value: dir.String()})
	}
}

// inbound holds the envelopes onMessage decodes into and lends out.
var inbound = sync.Pool{New: func() any { return new(wire.Envelope) }}

// onMessage is the protocol object's upcall: server stub unmarshals, the
// binder validates the epoch, interceptors run, and the surviving envelope
// goes to the receiver — lent, in a pooled envelope, for the upcall only.
func (s *Stack) onMessage(msg netsim.Message) {
	size := int64(len(msg.Payload))
	env := inbound.Get().(*wire.Envelope)
	// Zeroed on the way back, so a receiver that kept it reads nothing.
	defer func() { *env = wire.Envelope{}; inbound.Put(env) }()
	if err := env.UnmarshalBinary(msg.Payload); err != nil { // the server stub: frame to envelope
		// Drop undecodable traffic, as a real stack would.
		s.mu.Lock()
		b := s.bindingLocked(msg.From)
		b.discard(&b.DecodeErrors, size)
		s.mu.Unlock()
		return
	}
	epoch := uint64(1)
	if v, ok := env.Header(EpochHeader); ok {
		if parsed, perr := strconv.ParseUint(v, 10, 64); perr == nil && parsed > 0 {
			epoch = parsed
		}
	}

	// Binder: a higher epoch means the peer re-established the binding
	// (migration/failover) — adopt it; a lower epoch is a frame from a
	// binding that no longer exists — discard it as stale.
	s.mu.Lock()
	b := s.bindingLocked(msg.From)
	if b.observe(epoch) {
		b.discard(&b.StaleIn, size)
		s.mu.Unlock()
		return
	}
	// Counted as received while the record is in hand, so a frame takes
	// the lock once; an interceptor veto below moves it to the discards.
	b.FramesIn++
	b.BytesIn += size
	recv := s.recv
	s.mu.Unlock()

	if len(s.interceptors) > 0 {
		f := s.frame(Inbound, msg.From, env)
		for _, ic := range s.interceptors {
			if ic.fn(f) != nil {
				s.framePool.Put(f)
				s.mu.Lock()
				b.FramesIn--
				b.BytesIn -= size
				b.discard(&b.DroppedIn, size)
				s.mu.Unlock()
				s.frameDropped(ic.name, Inbound, env)
				return
			}
		}
		s.framePool.Put(f)
	}
	if recv != nil {
		recv(msg.From, env)
	}
}

// protocol owns the netsim.Node: it is the only place in the repository
// above netsim itself that calls Node.Send.
type protocol struct {
	node *netsim.Node
}

func (p protocol) transmit(to netsim.Address, kind string, data []byte) error {
	return p.node.Send(netsim.Message{To: to, Kind: kind, Payload: data})
}
