// Package rpc implements the invocation layer of the simulated ODP
// infrastructure: interrogations (request/reply) and announcements (one-way)
// between computational objects, carried over netsim in wire envelopes.
//
// The ODP computational viewpoint names exactly these two interaction
// kinds; higher layers (trader, directory, mhs, the CSCW environment) are
// all expressed in terms of them. The rule for choosing: an invocation whose
// outcome the caller discards is an announcement. An interrogation costs a
// reply frame, a correlation id, a pending call and a timeout timer, all for
// an outcome.
//
// Because the substrate may run under a simulated clock, the primary call
// API is asynchronous (Go with a completion callback). A blocking CallMsg is
// provided for use under the real clock or when another goroutine drives
// the simulation.
//
// Every body is binary: the typed entry points — GoMsg, CallMsg, Handle,
// HandleCtx, Result.Decode — accept only messages with their own
// AppendBinary and UnmarshalBinary; wire.Empty is a message with nothing to say.
//
// Transport is the engineering-viewpoint channel of internal/channel: the
// endpoint never touches the network node directly — every request, reply
// and announcement goes through the channel stack (stubs, binder, protocol
// object), where interceptors observe all traffic.
package rpc

import (
	"bytes"
	"encoding"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"mocca/internal/channel"
	"mocca/internal/id"
	"mocca/internal/netsim"
	"mocca/internal/observe"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// Envelope kinds used on the wire.
const (
	kindRequest  = "rpc.req"
	kindReply    = "rpc.rep"
	kindAnnounce = "rpc.ann"
)

// Errors surfaced to callers.
var (
	ErrTimeout       = errors.New("rpc: call timed out")
	ErrNoSuchMethod  = errors.New("rpc: no such method")
	ErrEndpointReuse = errors.New("rpc: method already registered")
)

// RemoteError is an application error returned by the remote handler.
type RemoteError struct {
	Method string
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote %s: %s", e.Method, e.Msg)
}

// Request is an inbound invocation as seen by a handler. Trace is the
// live trace context at the handler boundary: the serve span's context
// when the endpoint has a tracer, otherwise the context the request
// envelope carried (zero if untraced). Handlers propagate it into
// downstream calls via CallTrace and into their own spans as the
// parent. Body aliases the frame the channel lent for the upcall: it is
// valid until the handler returns — an AsyncHandler decodes it before
// then, not in its reply — and a handler copies out any bytes it keeps.
type Request struct {
	From   netsim.Address
	Method string
	Body   []byte
	Trace  wire.TraceContext
	// reply is the buffer the serving endpoint lends Handle to build the
	// reply body in; the endpoint takes it back once the reply is sent.
	reply *scratch
	// What the reply needs, copied out of the envelope the stack lent.
	corr      string
	wantReply bool                // an interrogation, not an announcement
	span      *observe.ActiveSpan // the serve span; nil unless traced
}

// Handler services an invocation. Returning an error sends a RemoteError to
// the caller. For announcements the returned body is discarded.
type Handler func(req Request) ([]byte, error)

// AsyncHandler services an invocation that completes later: the handler
// must call reply exactly once (possibly from a different event). reply
// sends before it returns and keeps no reference to body, so the handler
// may reuse the buffer afterwards. Handlers
// that fan out to other services over the network MUST use this form —
// blocking inside a Handler stalls the event loop under a simulated clock.
type AsyncHandler func(req Request, reply func(body []byte, err error))

// Result is the outcome of an asynchronous call. Body aliases the reply's
// frame, lent for the completion callback only: a callback decodes it (or
// copies out what it keeps) before it returns.
type Result struct {
	Body []byte
	Err  error
}

// Decode decodes the reply body into v by v's own UnmarshalBinary. It
// propagates the call error, so callbacks need exactly one check; whether an
// empty body is a reply is v's to say (wire.Empty's is the only one).
func (r Result) Decode(v encoding.BinaryUnmarshaler) error {
	if r.Err != nil {
		return r.Err
	}
	return v.UnmarshalBinary(r.Body)
}

// Stats counts endpoint activity.
type Stats struct {
	CallsSent     int64 `metric:"calls_sent"`
	CallsServed   int64 `metric:"calls_served"`
	Announcements int64
	Timeouts      int64 `metric:"timeouts"`
	RemoteErrors  int64 `metric:"remote_errors"`
}

// Option configures an Endpoint.
type Option func(*Endpoint)

// WithIDs sets the generator correlation ids are drawn from, as the bare
// decimal of its "call" sequence. A deployment hands every endpoint its
// one generator, so no two of its calls share an id — across a restart
// too, where a reply to the previous incarnation's call must match none of
// the new one's.
func WithIDs(g *id.Generator) Option {
	return func(e *Endpoint) { e.ids = g }
}

// WithChannel passes options through to the endpoint's channel stack
// (interceptors, fabric enrolment, transparency declarations).
func WithChannel(opts ...channel.Option) Option {
	return func(e *Endpoint) { e.chOpts = append(e.chOpts, opts...) }
}

// WithTelemetry attaches the deployment telemetry plane: traced calls
// record client spans (each retry attempt becomes its own child span),
// served requests record server spans, and the trace context propagates
// through the wire envelope on requests, replies and announcements.
func WithTelemetry(tel *observe.Telemetry) Option {
	return func(e *Endpoint) {
		if tel != nil {
			e.tracer = tel.Tracer
		}
	}
}

// Endpoint binds RPC behaviour to a network node: it can both serve methods
// and invoke remote ones. All traffic flows through the endpoint's channel
// stack.
type Endpoint struct {
	ch     *channel.Stack
	clock  vclock.Clock
	ids    *id.Generator
	tracer *observe.Tracer

	chOpts []channel.Option

	mu           sync.Mutex
	methods      map[string]Handler
	asyncMethods map[string]AsyncHandler
	pending      map[string]*pendingCall
	stats        Stats
	closed       bool

	// layerMu guards layerState separately from mu so LayerValue init
	// functions may call back into the endpoint (e.g. Register).
	layerMu    sync.Mutex
	layerState map[string]any
}

// pendingCall is one call's state, shared by its attempts. It comes from
// callPool with its expiry and retry funcs bound once.
type pendingCall struct {
	e      *Endpoint
	corr   string
	to     netsim.Address
	method string
	body   []byte
	done   func(Result)
	s      callSettings
	timer  vclock.Timer        // nil until the attempt's request is on the network
	span   *observe.ActiveSpan // the attempt's client span; nil unless traced

	expireFn, retryFn func()
}

var callPool sync.Pool

// stopTimer cancels the attempt's timeout and reports whether nothing of it
// can still run: none was armed, or Stop prevented it.
func (pc *pendingCall) stopTimer() bool {
	return pc.timer == nil || pc.timer.Stop()
}

func (pc *pendingCall) expire() { pc.e.expire(pc) }
func (pc *pendingCall) retry()  { pc.e.attempt(pc) }

// release gives a finished call back to callPool. Only complete calls it,
// once the final done has returned and only when stopTimer found no expiry
// that could still read the call; a call an expiry or Close finished is
// left to the GC.
func (pc *pendingCall) release() {
	expireFn, retryFn := pc.expireFn, pc.retryFn
	*pc = pendingCall{expireFn: expireFn, retryFn: retryFn}
	callPool.Put(pc)
}

// scratch is a pooled buffer a body is built in. A body is needed only until
// channel.Send has copied it into the frame the network keeps, so the typed
// entry points (GoMsg, CallMsg, the Handle reply) encode
// into a scratch and give it back once Send has returned.
type scratch struct{ buf []byte }

var scratchPool = sync.Pool{New: func() any { return &scratch{buf: make([]byte, 0, 1024)} }}

// encode appends m's body in the scratch; without one, in a buffer the
// caller keeps.
func (s *scratch) encode(m encoding.BinaryAppender) (body []byte, err error) {
	if s == nil {
		return m.AppendBinary(nil)
	}
	if body, err = m.AppendBinary(s.buf[:0]); err == nil {
		s.buf = body // keep what append grew
	}
	return body, err
}

// release gives the scratch back, unless one oversized body (a bulk
// late-join repair) grew it past what is worth pinning in the pool.
func (s *scratch) release() {
	if cap(s.buf) <= 1<<20 {
		scratchPool.Put(s)
	}
}

// NewEndpoint attaches an endpoint to the node by building a channel stack
// over it and installing the endpoint as the stack's receiver. One
// endpoint per node.
func NewEndpoint(node *netsim.Node, clock vclock.Clock, opts ...Option) *Endpoint {
	e := &Endpoint{
		clock:        clock,
		methods:      make(map[string]Handler),
		asyncMethods: make(map[string]AsyncHandler),
		pending:      make(map[string]*pendingCall),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.ids == nil {
		e.ids = id.New()
	}
	e.ch = channel.New(node, e.chOpts...)
	e.ch.Handle(e.onEnvelope)
	return e
}

// Addr returns the underlying node address.
func (e *Endpoint) Addr() netsim.Address { return e.ch.Addr() }

// LayerValue returns per-endpoint state owned by a higher layer, creating
// it with init on first use. It exists so layers that multiplex several
// logical sessions onto one endpoint (e.g. rtc's event demultiplexer) can
// anchor their state to the endpoint's lifetime instead of a package-level
// registry.
func (e *Endpoint) LayerValue(key string, init func() any) any {
	e.layerMu.Lock()
	defer e.layerMu.Unlock()
	if e.layerState == nil {
		e.layerState = make(map[string]any)
	}
	v, ok := e.layerState[key]
	if !ok {
		v = init()
		e.layerState[key] = v
	}
	return v
}

// Register installs a handler for a method name.
func (e *Endpoint) Register(method string, h Handler) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.methods[method]; ok {
		return fmt.Errorf("%w: %q", ErrEndpointReuse, method)
	}
	if _, ok := e.asyncMethods[method]; ok {
		return fmt.Errorf("%w: %q", ErrEndpointReuse, method)
	}
	e.methods[method] = h
	return nil
}

// RegisterAsync installs an asynchronous handler for a method name.
func (e *Endpoint) RegisterAsync(method string, h AsyncHandler) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.methods[method]; ok {
		return fmt.Errorf("%w: %q", ErrEndpointReuse, method)
	}
	if _, ok := e.asyncMethods[method]; ok {
		return fmt.Errorf("%w: %q", ErrEndpointReuse, method)
	}
	e.asyncMethods[method] = h
	return nil
}

// MustRegisterAsync is RegisterAsync panicking on error.
func (e *Endpoint) MustRegisterAsync(method string, h AsyncHandler) {
	if err := e.RegisterAsync(method, h); err != nil {
		panic(err)
	}
}

// MustRegister is Register panicking on error.
func (e *Endpoint) MustRegister(method string, h Handler) {
	if err := e.Register(method, h); err != nil {
		panic(err)
	}
}

// Stats returns a snapshot of the endpoint counters.
func (e *Endpoint) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Close cancels all pending calls with ErrTimeout and stops accepting work.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	pending := e.pending
	e.pending = make(map[string]*pendingCall)
	e.mu.Unlock()
	for _, pc := range pending {
		pc.stopTimer()
		endSpan(pc.span, "closed")
		pc.done(Result{Err: ErrTimeout})
	}
}

// startSpan opens a span named prefix+method under parent and returns it and
// the context to carry on; untraced, it builds nothing and returns nil, parent.
func (e *Endpoint) startSpan(prefix, method string, peer netsim.Address, parent wire.TraceContext) (*observe.ActiveSpan, wire.TraceContext) {
	if parent.IsZero() || !e.tracer.On() {
		return nil, parent
	}
	sp := e.tracer.StartChild(prefix+method, string(e.Addr()), parent)
	sp.SetAttr("peer", string(peer))
	return &sp, sp.Context()
}

// endSpan closes sp with status; a nil sp is a no-op.
func endSpan(sp *observe.ActiveSpan, status string) {
	if sp != nil {
		sp.EndStatus(status)
	}
}

// outbound holds send's envelopes; Stack.Send keeps none once it returns.
var outbound = sync.Pool{New: func() any { return new(wire.Envelope) }}

// send frames every request, reply and announcement in a pooled envelope. A
// non-nil herr goes in the error header, whatever its text.
func (e *Endpoint) send(to netsim.Address, kind, corr, method string, body []byte, tc wire.TraceContext, herr error) error {
	env := outbound.Get().(*wire.Envelope)
	*env = wire.Envelope{Version: wire.Version, Kind: kind, Corr: corr, Body: body, Trace: tc}
	env.SetHeader(channel.MethodHeader, method)
	if herr != nil {
		env.SetHeader("error", herr.Error())
	}
	err := e.ch.Send(to, env)
	*env = wire.Envelope{}
	outbound.Put(env)
	return err
}

// CallOption adjusts a single invocation.
type CallOption func(*callSettings)

type callSettings struct {
	timeout time.Duration
	backoff []time.Duration // the retry budget: one retry per entry
	onRetry func(attempt int)
	tries   int               // retries already made
	trace   wire.TraceContext // parent context for the call's spans
}

// DefaultTimeout bounds a call that sets no CallTimeout.
const DefaultTimeout = 2 * time.Second

// CallTimeout overrides DefaultTimeout for one call.
func CallTimeout(d time.Duration) CallOption {
	return func(s *callSettings) { s.timeout = d }
}

// CallBackoff retries a timed-out call once per schedule entry, waiting
// the entry's duration (zero: immediately) before each retry — the
// store-and-forward retry discipline layers like mhs used to hand-roll.
func CallBackoff(schedule ...time.Duration) CallOption {
	return func(s *callSettings) { s.backoff = schedule }
}

// CallOnRetry registers a callback invoked before each retry attempt
// (attempt counts from 1), letting callers keep their own retry
// accounting.
func CallOnRetry(fn func(attempt int)) CallOption {
	return func(s *callSettings) { s.onRetry = fn }
}

// CallTrace links the call into a trace: the request envelope carries a
// context parented under tc, and — when the endpoint has a tracer —
// each attempt (the first and every retry) records its own client span.
// A zero tc is a no-op, so callers can pass their request's Trace field
// unconditionally.
func CallTrace(tc wire.TraceContext) CallOption {
	return func(s *callSettings) { s.trace = tc }
}

// Go invokes method on the remote address asynchronously; done is called
// exactly once with the outcome. Safe to call from within handlers. The
// Result's Body is lent to done: it is valid until done returns.
func (e *Endpoint) Go(to netsim.Address, method string, body []byte, done func(Result), opts ...CallOption) {
	e.attempt(e.newCall(to, method, body, done, opts))
}

// newCall takes a call's state from the pool, opts applied in place over
// the defaults.
func (e *Endpoint) newCall(to netsim.Address, method string, body []byte, done func(Result), opts []CallOption) *pendingCall {
	pc, _ := callPool.Get().(*pendingCall)
	if pc == nil {
		pc = new(pendingCall)
		pc.expireFn, pc.retryFn = pc.expire, pc.retry
	}
	pc.e, pc.to, pc.method, pc.body, pc.done = e, to, method, body, done
	pc.s = callSettings{timeout: DefaultTimeout}
	for _, opt := range opts {
		opt(&pc.s)
	}
	return pc
}

func (e *Endpoint) attempt(pc *pendingCall) {
	// Each attempt — the first and every retry — records its own client
	// span under the caller's context, so a trace shows the retry
	// schedule, not just the surviving attempt.
	var callCtx wire.TraceContext
	pc.span, callCtx = e.startSpan("rpc.call:", pc.method, pc.to, pc.s.trace)
	if pc.span != nil && pc.s.tries > 0 {
		pc.span.SetAttr("attempt", strconv.Itoa(pc.s.tries+1))
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		endSpan(pc.span, "closed")
		pc.done(Result{Err: ErrTimeout})
		return
	}
	corr := strconv.FormatUint(e.ids.Seq("call"), 10)
	pc.corr, pc.timer = corr, nil
	e.stats.CallsSent++
	e.pending[corr] = pc
	deadline := e.clock.Now().Add(pc.s.timeout)
	e.mu.Unlock()

	if err := e.send(pc.to, kindRequest, corr, pc.method, pc.body, callCtx, nil); err != nil {
		if _, ok := e.takePending(corr); !ok {
			return
		}
		endSpan(pc.span, "senderr")
		// A transient local failure (node down, interceptor veto) consumes
		// the same retry budget as a timeout: the condition may clear
		// before the schedule runs out. A deterministic one (the envelope
		// violates wire size limits) can never succeed — fail now instead
		// of burning the whole backoff schedule on it.
		if permanentSendError(err) {
			pc.done(Result{Err: err})
			return
		}
		e.retryOrFail(pc, err)
		return
	}
	// The timeout is armed only once the frame is on the network. A
	// blocking caller runs beside the goroutine that advances a simulated
	// clock (Deployment.Do); armed first, the timer could be the only event
	// that goroutine sees, and it would jump to the deadline and expire a
	// call whose request had not left yet — which holder served a read then
	// depended on host scheduling. The deadline was fixed before the send,
	// and a reply that already came back leaves nothing to arm.
	e.mu.Lock()
	if e.pending[corr] == pc {
		pc.timer = e.clock.AfterFunc(deadline.Sub(e.clock.Now()), pc.expireFn)
	}
	e.mu.Unlock()
}

// permanentSendError reports whether a local send failure is deterministic:
// the same envelope will fail the same way on every attempt, so retrying
// is pure waste. Today that is exactly the wire marshalling limits — an
// oversize body, header or method name is a property of the request, not
// of the network.
func permanentSendError(err error) bool {
	return errors.Is(err, wire.ErrOversize)
}

// takePending removes and returns the pending call for corr; exactly one
// of the completion paths (reply, timeout, send failure, Close) wins it.
func (e *Endpoint) takePending(corr string) (*pendingCall, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	pc, ok := e.pending[corr]
	if ok {
		delete(e.pending, corr)
	}
	return pc, ok
}

// expire handles a call timeout, retrying if budget remains. A call retries
// only once its timer fired, so pc.corr is still the timed-out attempt's.
func (e *Endpoint) expire(pc *pendingCall) {
	if _, ok := e.takePending(pc.corr); !ok {
		return // reply won the race
	}
	endSpan(pc.span, "timeout")
	e.mu.Lock()
	e.stats.Timeouts++
	e.mu.Unlock()
	e.retryOrFail(pc, fmt.Errorf("%w: %s on %s", ErrTimeout, pc.method, pc.to))
}

// retryOrFail re-attempts a failed call — immediately, or after the
// configured backoff delay — and completes it with cause once the budget
// is spent.
func (e *Endpoint) retryOrFail(pc *pendingCall, cause error) {
	s := &pc.s
	if s.tries >= len(s.backoff) {
		pc.done(Result{Err: cause})
		return
	}
	delay := s.backoff[s.tries]
	s.tries++
	if s.onRetry != nil {
		s.onRetry(s.tries)
	}
	if delay > 0 {
		e.clock.Schedule(delay, pc.retryFn)
		return
	}
	e.attempt(pc)
}

// complete resolves a pending call if still outstanding.
func (e *Endpoint) complete(corr string, r Result) {
	pc, ok := e.takePending(corr)
	if !ok {
		return
	}
	if _, isRemote := r.Err.(*RemoteError); isRemote {
		e.mu.Lock()
		e.stats.RemoteErrors++
		e.mu.Unlock()
	}
	quiet := pc.stopTimer()
	status := ""
	if r.Err != nil {
		status = "error"
	}
	endSpan(pc.span, status)
	pc.done(r)
	if quiet {
		pc.release()
	}
}

// Announce sends a one-way invocation: no reply, no timeout, no
// outcome. CallTrace is the only option that applies; it links the
// announcement into a trace with an instantaneous span.
func (e *Endpoint) Announce(to netsim.Address, method string, body []byte, opts ...CallOption) error {
	var tc wire.TraceContext
	if len(opts) > 0 {
		// Applying an option moves the settings to the heap: only then.
		s := new(callSettings)
		for _, opt := range opts {
			opt(s)
		}
		tc = s.trace
	}
	sp, tc := e.startSpan("rpc.ann:", method, to, tc)
	defer endSpan(sp, "")
	e.mu.Lock()
	e.stats.Announcements++
	e.mu.Unlock()
	return e.send(to, kindAnnounce, "", method, body, tc, nil)
}

// onEnvelope dispatches envelopes delivered by the channel stack.
func (e *Endpoint) onEnvelope(from netsim.Address, env *wire.Envelope) {
	switch env.Kind {
	case kindRequest:
		e.serve(from, env, true)
	case kindAnnounce:
		e.serve(from, env, false)
	case kindReply:
		e.onReply(env)
	}
}

// serve runs the registered handler and, for interrogations, replies.
func (e *Endpoint) serve(from netsim.Address, env *wire.Envelope, reply bool) {
	method, _ := env.Header("method")
	e.mu.Lock()
	h, ok := e.methods[method]
	ah, aok := e.asyncMethods[method]
	e.stats.CallsServed++
	e.mu.Unlock()

	req := Request{From: from, Method: method, Body: env.Body, corr: env.Corr, wantReply: reply}
	// Continuations inside the handler parent under the serve span.
	req.span, req.Trace = e.startSpan("rpc.serve:", method, from, env.Trace)
	if ok && reply {
		req.reply = scratchPool.Get().(*scratch)
		defer req.reply.release()
	}

	switch {
	case aok:
		e.serveAsync(ah, req)
	case ok:
		body, herr := h(req)
		e.finish(req, body, herr)
	default:
		e.finish(req, nil, fmt.Errorf("%w: %q", ErrNoSuchMethod, method))
	}
}

// serveAsync hands the request to an async handler with a reply callback —
// the one closure a served request can cost.
func (e *Endpoint) serveAsync(ah AsyncHandler, req Request) {
	ah(req, func(body []byte, herr error) { e.finish(req, body, herr) })
	if !req.wantReply {
		// Announcements never reply; close the serve span at the dispatch
		// boundary.
		endSpan(req.span, "")
	}
}

// finish closes the serve span and, for an interrogation, sends the reply.
func (e *Endpoint) finish(req Request, body []byte, herr error) {
	status := ""
	if herr != nil {
		status = "error"
	}
	endSpan(req.span, status)
	if !req.wantReply {
		return
	}
	// The reply carries the serve span's context so the returning frame
	// stays inside the trace. Best effort: if the reply cannot be sent the
	// caller times out.
	_ = e.send(req.From, kindReply, req.corr, req.Method, body, req.Trace, herr)
}

// onReply resolves the matching pending call.
func (e *Endpoint) onReply(env *wire.Envelope) {
	if msg, ok := env.Header("error"); ok {
		method, _ := env.Header("method")
		e.complete(env.Corr, Result{Err: &RemoteError{Method: method, Msg: msg}})
		return
	}
	e.complete(env.Corr, Result{Body: env.Body})
}

// CallMsg invokes method with req's body and decodes the reply into resp:
// GoMsg plus a wait. The reply is decoded in the completion callback, while
// its frame is still lent; only the error crosses to the waiting caller.
// Under a simulated clock the caller must not be the goroutine driving the
// clock.
func (e *Endpoint) CallMsg(to netsim.Address, method string, req encoding.BinaryAppender, resp encoding.BinaryUnmarshaler, opts ...CallOption) error {
	ch := make(chan error, 1)
	e.GoMsg(to, method, req, func(r Result) { ch <- r.Decode(resp) }, opts...)
	return <-ch
}

// GoMsg is the asynchronous form of CallMsg: req's body is built in a pooled
// scratch, and decoding the reply is left to done via the raw Result, whose
// Body is lent to done until it returns.
func (e *Endpoint) GoMsg(to netsim.Address, method string, req encoding.BinaryAppender, done func(Result), opts ...CallOption) {
	buf := scratchPool.Get().(*scratch)
	defer buf.release()
	body, err := buf.encode(req)
	if err != nil {
		done(Result{Err: err})
		return
	}
	pc := e.newCall(to, method, body, done, opts)
	if len(pc.s.backoff) > 0 {
		// A retry resends after this call has given the scratch back; with
		// no retry budget nothing reads the body once attempt returns.
		pc.body = bytes.Clone(body)
	}
	e.attempt(pc)
}

// Handle adapts a typed handler into a Handler. The adapter decodes every
// request body by Req's UnmarshalBinary — an empty body included, which
// only a message like wire.Empty accepts — into a Req from the handler's
// own pool, passes it by value and zeroes it on the way back, then appends
// the returned message to the scratch the endpoint lends for the reply.
func Handle[Req any, Resp encoding.BinaryAppender, PReq interface {
	*Req
	encoding.BinaryUnmarshaler
}](f func(from netsim.Address, req Req) (Resp, error)) Handler {
	return HandleCtx[Req, Resp, PReq](func(from netsim.Address, _ wire.TraceContext, req Req) (Resp, error) {
		return f(from, req)
	})
}

// HandleCtx is Handle for handlers that continue the request's trace — the
// handler receives the live trace context alongside the decoded request, for
// tagging objects and parenting downstream spans.
func HandleCtx[Req any, Resp encoding.BinaryAppender, PReq interface {
	*Req
	encoding.BinaryUnmarshaler
}](f func(from netsim.Address, tc wire.TraceContext, req Req) (Resp, error)) Handler {
	return HandleRefused[Req, Resp, PReq](f, nil)
}

// HandleRefused is HandleCtx for handlers that count the bodies they could
// not read: refused, unless nil, hears of each request whose body the
// decoder refused, with the decoder's error, before that error answers
// the caller or, for an announcement, is dropped — the handler that would
// count it never runs.
func HandleRefused[Req any, Resp encoding.BinaryAppender, PReq interface {
	*Req
	encoding.BinaryUnmarshaler
}](f func(from netsim.Address, tc wire.TraceContext, req Req) (Resp, error), refused func(error)) Handler {
	// Decoding into a local would move it to the heap through the generic
	// UnmarshalBinary call, once per request.
	pool := sync.Pool{New: func() any { return new(Req) }}
	return func(r Request) ([]byte, error) {
		req := pool.Get().(*Req)
		defer func() {
			var zero Req
			*req = zero
			pool.Put(req)
		}()
		if err := PReq(req).UnmarshalBinary(r.Body); err != nil {
			if refused != nil {
				refused(err)
			}
			return nil, err
		}
		resp, err := f(r.From, r.Trace, *req)
		if err != nil {
			return nil, err
		}
		return r.reply.encode(resp) // no scratch when no endpoint made the call
	}
}
