// Package channel implements the ODP engineering-viewpoint channel that
// figure 4 of the paper places between the CSCW environment and the
// network: every computational binding compiles down to a stack of
//
//	client stub  — frames wire.Envelopes onto bytes (and back)
//	binder       — tracks binding epochs, rebinds after migration/failure
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
// interceptors observe 100% of traffic and lets the engineering
// bookkeeping (engineering.Fabric) reconcile exactly with netsim.Stats.
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
// never raw bytes. The *Frame an interceptor receives is pooled: valid
// only for the duration of the call, never to be retained.
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

// Receiver consumes inbound envelopes that survived the stack.
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

// add folds o into s.
func (s *Stats) add(o Stats) {
	s.FramesOut += o.FramesOut
	s.FramesIn += o.FramesIn
	s.BytesOut += o.BytesOut
	s.BytesIn += o.BytesIn
	s.DroppedOut += o.DroppedOut
	s.DroppedIn += o.DroppedIn
	s.StaleIn += o.StaleIn
	s.DecodeErrors += o.DecodeErrors
	s.Rebinds += o.Rebinds
}

// Observer receives channel lifecycle and traffic notifications; the
// engineering layer implements it to mirror live channels into its
// bookkeeping (engineering.Fabric). Addresses are strings so implementations
// need not import netsim's types. Callbacks run on the sending/delivering
// goroutine and must be fast.
type Observer interface {
	ChannelBound(local, remote string, epoch uint64)
	ChannelRebound(local, remote string, epoch uint64)
	FrameSent(local, remote string, wireBytes int)
	FrameReceived(local, remote string, wireBytes int)
	// FrameDiscarded reports a frame the network delivered but the stack
	// dropped before the receiver (decode error, stale epoch, interceptor
	// veto) — needed so observers can still reconcile with the network's
	// delivery counters.
	FrameDiscarded(local, remote string, wireBytes int, reason string)
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
	return func(s *Stack) {
		s.interceptors = append(s.interceptors, namedInterceptor{
			name: fmt.Sprintf("#%d", len(s.interceptors)),
			fn:   i,
		})
	}
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

// WithObserver registers the lifecycle/traffic observer.
func WithObserver(o Observer) Option {
	return func(s *Stack) { s.observer = o }
}

// WithTransparencies declares the transparencies this channel provides;
// outbound frames carry the declaration in MaskHeader so peers (and
// interceptors) can check a binding's guarantees against requirements.
func WithTransparencies(m odp.Mask) Option {
	return func(s *Stack) { s.mask = m }
}

// Stack is the engineering channel bound to one network node. Create with
// New; exactly one Stack owns a node.
type Stack struct {
	proto        protocol
	binder       Binder
	interceptors []namedInterceptor
	observer     Observer
	tracer       *observe.Tracer
	metrics      *observe.Registry
	mask         odp.Mask
	maskString   string

	mu    sync.Mutex
	stats map[netsim.Address]*Stats
	recv  Receiver

	// framePool recycles the Frame handed to interceptors: passing a
	// pointer to dynamic funcs forces a heap escape per frame, which a
	// pool amortises to zero steady-state allocations.
	framePool sync.Pool
}

// New builds a channel stack over the node and installs the protocol
// object as the node's network handler.
func New(node *netsim.Node, opts ...Option) *Stack {
	s := &Stack{
		proto: protocol{node: node},
		stats: make(map[netsim.Address]*Stats),
	}
	s.binder.init()
	for _, opt := range opts {
		opt(s)
	}
	if s.mask != 0 {
		s.maskString = s.mask.String()
	}
	node.Handle(s.onMessage)
	return s
}

// Addr returns the local node address.
func (s *Stack) Addr() netsim.Address { return s.proto.node.Addr() }

// Transparencies returns the declared transparency mask.
func (s *Stack) Transparencies() odp.Mask { return s.mask }

// Handle installs the receiver for inbound envelopes. One receiver per
// stack; the layer above (rpc) demultiplexes by envelope kind.
func (s *Stack) Handle(r Receiver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recv = r
}

// Send pushes an envelope down the stack toward remote: interceptors, then
// the binder stamps the binding epoch, then the client stub marshals, then
// the protocol object transmits. The envelope must not be reused after a
// successful Send (the binder may have stamped headers on it).
func (s *Stack) Send(to netsim.Address, env *wire.Envelope) error {
	if len(s.interceptors) > 0 {
		f := s.frame(Outbound, to, env)
		for _, ic := range s.interceptors {
			if err := ic.fn(f); err != nil {
				s.framePool.Put(f)
				s.bumpLocked(to, func(st *Stats) { st.DroppedOut++ })
				s.frameDropped(ic.name, Outbound, env)
				if errors.Is(err, ErrDropFrame) {
					return nil
				}
				return err
			}
		}
		s.framePool.Put(f)
	}

	// Binder: record (or establish) the binding and stamp its epoch.
	epoch, fresh := s.binder.bind(to)
	if fresh && s.observer != nil {
		s.observer.ChannelBound(string(s.proto.node.Addr()), string(to), epoch)
	}
	if epoch > 1 {
		env.SetHeader(EpochHeader, strconv.FormatUint(epoch, 10))
	}
	if s.maskString != "" {
		env.SetHeader(MaskHeader, s.maskString)
	}

	data, err := marshalStub(env)
	if err != nil {
		return err
	}
	if err := s.proto.transmit(to, env.Kind, data); err != nil {
		return err
	}
	s.bumpLocked(to, func(st *Stats) {
		st.FramesOut++
		st.BytesOut += int64(len(data))
	})
	if s.observer != nil {
		s.observer.FrameSent(string(s.proto.node.Addr()), string(to), len(data))
	}
	return nil
}

// Rebind bumps the binding epoch toward remote — called after the remote
// end migrated or failed over, so the peer's binder observes the new epoch
// on the next frame and re-establishes. Returns the new epoch.
func (s *Stack) Rebind(remote netsim.Address) uint64 {
	epoch := s.binder.rebind(remote)
	s.bumpLocked(remote, func(st *Stats) { st.Rebinds++ })
	if s.observer != nil {
		s.observer.ChannelRebound(string(s.proto.node.Addr()), string(remote), epoch)
	}
	return epoch
}

// Epoch returns the current binding epoch toward remote (1 if unbound).
func (s *Stack) Epoch(remote netsim.Address) uint64 { return s.binder.epoch(remote) }

// Stats returns a snapshot of the binding counters toward remote.
func (s *Stack) Stats(remote netsim.Address) Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.stats[remote]; ok {
		return *st
	}
	return Stats{}
}

// Total aggregates all bindings' counters.
func (s *Stack) Total() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t Stats
	for _, st := range s.stats {
		t.add(*st)
	}
	return t
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

// bumpLocked applies fn to the remote's counters under the lock.
func (s *Stack) bumpLocked(remote netsim.Address, fn func(*Stats)) {
	s.mu.Lock()
	st, ok := s.stats[remote]
	if !ok {
		st = &Stats{}
		s.stats[remote] = st
	}
	fn(st)
	s.mu.Unlock()
}

// onMessage is the protocol object's upcall: server stub unmarshals, the
// binder validates the epoch, interceptors run, and the surviving envelope
// goes to the receiver.
func (s *Stack) onMessage(msg netsim.Message) {
	discard := func(reason string, bump func(*Stats)) {
		s.bumpLocked(msg.From, bump)
		if s.observer != nil {
			s.observer.FrameDiscarded(string(s.proto.node.Addr()), string(msg.From), len(msg.Payload), reason)
		}
	}
	env, err := unmarshalStub(msg.Payload)
	if err != nil {
		// Drop undecodable traffic, as a real stack would.
		discard("decode", func(st *Stats) { st.DecodeErrors++ })
		return
	}

	// Binder: a higher epoch means the peer re-established the binding
	// (migration/failover) — adopt it; a lower epoch is a frame from a
	// binding that no longer exists — discard it as stale.
	epoch := uint64(1)
	if v, ok := env.Header(EpochHeader); ok {
		if parsed, perr := strconv.ParseUint(v, 10, 64); perr == nil && parsed > 0 {
			epoch = parsed
		}
	}
	switch adopted, stale := s.binder.observe(msg.From, epoch); {
	case stale:
		discard("stale-epoch", func(st *Stats) { st.StaleIn++ })
		return
	case adopted:
		s.bumpLocked(msg.From, func(st *Stats) { st.Rebinds++ })
		if s.observer != nil {
			s.observer.ChannelRebound(string(s.proto.node.Addr()), string(msg.From), epoch)
		}
	}

	if len(s.interceptors) > 0 {
		f := s.frame(Inbound, msg.From, env)
		for _, ic := range s.interceptors {
			if ic.fn(f) != nil {
				s.framePool.Put(f)
				discard("interceptor", func(st *Stats) { st.DroppedIn++ })
				s.frameDropped(ic.name, Inbound, env)
				return
			}
		}
		s.framePool.Put(f)
	}

	s.mu.Lock()
	st, ok := s.stats[msg.From]
	if !ok {
		st = &Stats{}
		s.stats[msg.From] = st
	}
	st.FramesIn++
	st.BytesIn += int64(len(msg.Payload))
	recv := s.recv
	s.mu.Unlock()
	if s.observer != nil {
		s.observer.FrameReceived(string(s.proto.node.Addr()), string(msg.From), len(msg.Payload))
	}
	if recv != nil {
		recv(msg.From, env)
	}
}

// --- stubs ---------------------------------------------------------------

// marshalStub is the client stub: it turns a structured envelope into the
// byte frame the protocol object transmits.
func marshalStub(env *wire.Envelope) ([]byte, error) { return wire.Marshal(env) }

// unmarshalStub is the server stub: it rebuilds the structured envelope
// from a received frame.
func unmarshalStub(data []byte) (*wire.Envelope, error) { return wire.Unmarshal(data) }

// --- binder --------------------------------------------------------------

// Binder tracks binding epochs per remote interface. Epochs start at 1 and
// only move forward; Rebind bumps the local view and the peer adopts the
// higher epoch from the next frame's EpochHeader.
type Binder struct {
	mu     sync.Mutex
	epochs map[netsim.Address]uint64
}

func (b *Binder) init() { b.epochs = make(map[netsim.Address]uint64) }

// bind returns the current epoch toward remote, establishing the binding
// at epoch 1 on first use. fresh reports whether this call established it.
func (b *Binder) bind(remote netsim.Address) (epoch uint64, fresh bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.epochs[remote]; ok {
		return e, false
	}
	b.epochs[remote] = 1
	return 1, true
}

// epoch returns the recorded epoch without establishing a binding.
func (b *Binder) epoch(remote netsim.Address) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.epochs[remote]; ok {
		return e
	}
	return 1
}

// rebind advances the epoch toward remote.
func (b *Binder) rebind(remote netsim.Address) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.epochs[remote]
	if !ok {
		e = 1
	}
	e++
	b.epochs[remote] = e
	return e
}

// observe reconciles an inbound frame's epoch with the recorded binding:
// higher adopts (the peer rebound), lower is stale, equal is steady state.
func (b *Binder) observe(remote netsim.Address, epoch uint64) (adopted, stale bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur, ok := b.epochs[remote]
	if !ok {
		cur = 1
		b.epochs[remote] = 1
	}
	switch {
	case epoch > cur:
		b.epochs[remote] = epoch
		return true, false
	case epoch < cur:
		return false, true
	default:
		return false, false
	}
}

// --- protocol object -----------------------------------------------------

// protocol owns the netsim.Node: it is the only place in the repository
// above netsim itself that calls Node.Send.
type protocol struct {
	node *netsim.Node
}

func (p protocol) transmit(to netsim.Address, kind string, data []byte) error {
	return p.node.Send(netsim.Message{To: to, Kind: kind, Payload: data})
}
