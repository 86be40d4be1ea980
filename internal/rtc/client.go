package rtc

import (
	"sort"
	"sync"
	"time"

	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// Session is a participant's client-side view of one conference: a state
// replica kept consistent by applying server-sequenced events in order.
type Session struct {
	Member     string
	Conference string

	endpoint *rpc.Endpoint
	mux      *sessionMux
	server   netsim.Address
	clock    vclock.Clock

	mu        sync.Mutex
	seq       uint64
	state     map[string]string
	members   map[string]bool
	floor     string
	onEvent   func(Event)
	pending   map[uint64]Event // out-of-order buffer
	joined    bool
	rejoining bool // a re-join started by a gap is in flight
	hbTimer   vclock.Timer
	hbPeriod  time.Duration
	gapsFixed int64
}

// SessionOption configures a Session.
type SessionOption func(*Session)

// WithHeartbeat makes the session heartbeat at the given period.
func WithHeartbeat(period time.Duration) SessionOption {
	return func(s *Session) { s.hbPeriod = period }
}

// OnEvent registers the application callback for delivered events. Events
// arrive in sequence order.
func OnEvent(fn func(Event)) SessionOption {
	return func(s *Session) { s.onEvent = fn }
}

// NewSession prepares (but does not join) a session for member on the
// conference hosted at server. The session registers the one-way event
// handler on the endpoint; one endpoint supports many sessions.
func NewSession(endpoint *rpc.Endpoint, clock vclock.Clock, server netsim.Address, conference, member string, opts ...SessionOption) *Session {
	s := &Session{
		Member:     member,
		Conference: conference,
		endpoint:   endpoint,
		server:     server,
		clock:      clock,
		state:      make(map[string]string),
		members:    make(map[string]bool),
		pending:    make(map[uint64]Event),
	}
	for _, opt := range opts {
		opt(s)
	}
	registerSessionMux(endpoint, s)
	return s
}

// sessionMux demultiplexes rtc.event announcements to sessions sharing an
// endpoint. The mux lives on the endpoint itself (rpc.LayerValue), so its
// lifetime is the endpoint's: sessions cannot leak across deployments and
// no package-level registry of endpoints exists.
type sessionMux struct {
	mu       sync.Mutex
	sessions map[string][]*Session // conference id -> sessions
}

// sessionMuxKey names the rtc layer's slot on an endpoint.
const sessionMuxKey = "rtc.sessionMux"

func registerSessionMux(ep *rpc.Endpoint, s *Session) {
	mux := ep.LayerValue(sessionMuxKey, func() any {
		mux := &sessionMux{sessions: make(map[string][]*Session)}
		ep.MustRegister(MethodEvent, func(req rpc.Request) ([]byte, error) {
			var ev Event
			if err := ev.UnmarshalBinary(req.Body); err != nil {
				return nil, err
			}
			mux.mu.Lock()
			targets := append([]*Session(nil), mux.sessions[ev.Conference]...)
			mux.mu.Unlock()
			for _, sess := range targets {
				sess.apply(ev)
			}
			return nil, nil
		})
		return mux
	}).(*sessionMux)

	mux.mu.Lock()
	mux.sessions[s.Conference] = append(mux.sessions[s.Conference], s)
	mux.mu.Unlock()
	s.mux = mux
}

// reregister re-attaches a session that previously left, so Leave then
// Join keeps receiving fan-out events. No-op while still registered.
func (s *Session) reregister() {
	mux := s.mux
	if mux == nil {
		return
	}
	mux.mu.Lock()
	defer mux.mu.Unlock()
	for _, sess := range mux.sessions[s.Conference] {
		if sess == s {
			return
		}
	}
	mux.sessions[s.Conference] = append(mux.sessions[s.Conference], s)
}

// Detach removes the session from its endpoint's event demultiplexer
// without telling the server — for abandoning a session that cannot (or
// should not) Leave, e.g. when a client is superseded by a new session
// after a crash. A detached session can re-attach by calling Join.
func (s *Session) Detach() {
	s.mu.Lock()
	s.joined = false
	if s.hbTimer != nil {
		s.hbTimer.Stop()
	}
	s.mu.Unlock()
	s.unregister()
}

// unregister removes the session from its endpoint's mux so a departed
// session stops consuming (and buffering) fan-out events.
func (s *Session) unregister() {
	mux := s.mux
	if mux == nil {
		return
	}
	mux.mu.Lock()
	defer mux.mu.Unlock()
	list := mux.sessions[s.Conference]
	for i, sess := range list {
		if sess == s {
			mux.sessions[s.Conference] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(mux.sessions[s.Conference]) == 0 {
		delete(mux.sessions, s.Conference)
	}
}

// Join enters the conference, initialising the replica from the server
// snapshot. Blocking; see package rpc for simulated-clock usage.
func (s *Session) Join() error {
	s.reregister()
	var resp joinResp
	err := s.endpoint.CallMsg(s.server, MethodJoin, joinReq{
		Conference: s.Conference,
		Member:     s.Member,
		Addr:       string(s.endpoint.Addr()),
	}, &resp)
	if err != nil {
		// A session that failed to join must not stay in the mux
		// buffering the conference's events unboundedly; a retried Join
		// re-registers it.
		s.unregister()
		return err
	}
	s.finishJoin(resp)
	return nil
}

// GoJoin is Join's asynchronous form: safe to call from a simulated-clock
// callback, where the blocking Join would deadlock the event loop. done
// (may be nil) fires on the event goroutine once the snapshot installs or
// the join fails.
func (s *Session) GoJoin(done func(error)) {
	s.reregister()
	s.goJoin(func(resp joinResp, err error) {
		if err != nil {
			s.unregister()
		} else {
			s.finishJoin(resp)
		}
		if done != nil {
			done(err)
		}
	})
}

// goJoin sends the join request and hands then the server's reply.
func (s *Session) goJoin(then func(joinResp, error)) {
	s.endpoint.GoMsg(s.server, MethodJoin, joinReq{
		Conference: s.Conference,
		Member:     s.Member,
		Addr:       string(s.endpoint.Addr()),
	}, func(r rpc.Result) {
		var resp joinResp
		err := r.Decode(&resp)
		then(resp, err)
	})
}

// rejoin recovers a member that missed a fan-out event. The server sends
// each event once, so the gap behind an event that arrives past it never
// fills by itself: a fresh join installs the current snapshot and drains
// whatever pending holds beyond it. The server tells nobody of a join by a
// member already present, so a re-join opens no gap elsewhere. A failed
// re-join leaves the session registered, so the next event past the gap
// tries again; a session that left or was detached meanwhile installs
// nothing.
func (s *Session) rejoin() {
	s.goJoin(func(resp joinResp, err error) {
		s.mu.Lock()
		s.rejoining = false
		joined := s.joined
		s.mu.Unlock()
		if err == nil && joined {
			s.finishJoin(resp)
		}
	})
}

// finishJoin installs the server snapshot after a successful join reply.
func (s *Session) finishJoin(resp joinResp) {
	s.mu.Lock()
	// Two joins can be in flight (a re-join beside a caller's Join): a
	// snapshot older than what the session already applied is stale.
	if !s.joined || resp.Seq >= s.seq {
		s.seq = resp.Seq
		s.state = resp.State
		if s.state == nil {
			s.state = make(map[string]string)
		}
		s.members = make(map[string]bool, len(resp.Members))
		for _, m := range resp.Members {
			s.members[m] = true
		}
	}
	s.joined = true
	// Events can outrun the join reply (the server broadcasts the joined
	// event before replying): discard any that the snapshot already
	// covers, then drain the rest in order.
	for seq := range s.pending {
		if seq <= s.seq {
			delete(s.pending, seq)
		}
	}
	deliver := s.drainPendingLocked()
	cb := s.onEvent
	s.mu.Unlock()

	if cb != nil {
		for _, d := range deliver {
			cb(d)
		}
	}
	if s.hbPeriod > 0 {
		s.scheduleHeartbeat()
	}
}

// drainPendingLocked applies consecutively-sequenced buffered events and
// returns them for callback delivery. Caller holds s.mu.
func (s *Session) drainPendingLocked() []Event {
	var deliver []Event
	for {
		next, ok := s.pending[s.seq+1]
		if !ok {
			return deliver
		}
		delete(s.pending, s.seq+1)
		s.gapsFixed++
		s.applyLocked(next)
		deliver = append(deliver, next)
	}
}

// Leave exits the conference, stops heartbeats, and detaches the session
// from its endpoint's event demultiplexer.
func (s *Session) Leave() error {
	s.mu.Lock()
	s.joined = false
	if s.hbTimer != nil {
		s.hbTimer.Stop()
	}
	s.mu.Unlock()
	s.unregister()
	return s.endpoint.CallMsg(s.server, MethodLeave, memberReq{Conference: s.Conference, Member: s.Member}, &wire.Empty{})
}

// Set publishes a shared-state mutation (WYSIWIS write).
func (s *Session) Set(key, value string) error {
	var resp updateResp
	return s.endpoint.CallMsg(s.server, MethodUpdate, updateReq{
		Conference: s.Conference, Member: s.Member, Kind: EventState, Key: key, Value: value,
	}, &resp)
}

// GoSet is Set's asynchronous form for simulated-clock callbacks. done
// (may be nil) fires on the event goroutine with the server's verdict.
func (s *Session) GoSet(key, value string, done func(error)) {
	s.endpoint.GoMsg(s.server, MethodUpdate, updateReq{
		Conference: s.Conference, Member: s.Member, Kind: EventState, Key: key, Value: value,
	}, func(r rpc.Result) {
		var resp updateResp
		err := r.Decode(&resp)
		if done != nil {
			done(err)
		}
	})
}

// RequestFloor asks for the floor; returns the resulting holder.
func (s *Session) RequestFloor() (string, error) {
	var resp floorResp
	err := s.endpoint.CallMsg(s.server, MethodFloorRequest, memberReq{Conference: s.Conference, Member: s.Member}, &resp)
	return resp.Holder, err
}

// ReleaseFloor gives the floor back.
func (s *Session) ReleaseFloor() error {
	var resp floorResp
	return s.endpoint.CallMsg(s.server, MethodFloorRelease, memberReq{Conference: s.Conference, Member: s.Member}, &resp)
}

// State returns a copy of the replica state.
func (s *Session) State() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.state))
	for k, v := range s.state {
		out[k] = v
	}
	return out
}

// Get returns one replica value.
func (s *Session) Get(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state[key]
}

// Seq returns the highest applied sequence number.
func (s *Session) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Members returns the locally-known member list, sorted.
func (s *Session) Members() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.members))
	for m := range s.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Floor returns the locally-known floor holder ("" if free).
func (s *Session) Floor() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floor
}

// GapsRepaired counts out-of-order events buffered then applied; a health
// signal for the transport.
func (s *Session) GapsRepaired() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gapsFixed
}

// apply folds a server event into the replica, buffering out-of-order
// arrivals until a re-join closes the gap.
func (s *Session) apply(ev Event) {
	s.mu.Lock()
	if !s.joined {
		// Events can outrun the join reply; hold everything until the
		// snapshot installs, then Join drains the buffer.
		s.pending[ev.Seq] = ev
		s.mu.Unlock()
		return
	}
	if ev.Seq <= s.seq {
		s.mu.Unlock()
		return // duplicate
	}
	if ev.Seq != s.seq+1 {
		// A gap: the events before this one are lost or late. Buffer
		// it and fetch a snapshot, unless a re-join is on its way; the
		// snapshot covers both, and a late event that arrives after it
		// is a duplicate.
		s.pending[ev.Seq] = ev
		rejoin := !s.rejoining
		s.rejoining = true
		s.mu.Unlock()
		if rejoin {
			s.rejoin()
		}
		return
	}
	deliver := []Event{ev}
	s.applyLocked(ev)
	deliver = append(deliver, s.drainPendingLocked()...)
	cb := s.onEvent
	s.mu.Unlock()

	if cb != nil {
		for _, d := range deliver {
			cb(d)
		}
	}
}

// applyLocked mutates the replica for one in-order event.
func (s *Session) applyLocked(ev Event) {
	s.seq = ev.Seq
	switch ev.Kind {
	case EventState:
		s.state[ev.Key] = ev.Value
	case EventJoined:
		s.members[ev.From] = true
	case EventLeft, EventEvicted:
		delete(s.members, ev.From)
		if s.floor == ev.From {
			s.floor = ""
		}
	case EventFloor:
		if ev.Value == "granted" {
			s.floor = ev.From
		} else {
			s.floor = ""
		}
	}
}

func (s *Session) scheduleHeartbeat() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.joined {
		return
	}
	if s.hbTimer != nil {
		s.hbTimer.Stop() // a re-join must not start a second beat
	}
	s.hbTimer = s.clock.AfterFunc(s.hbPeriod, func() {
		s.mu.Lock()
		joined := s.joined
		s.mu.Unlock()
		if !joined {
			return
		}
		body, _ := memberReq{Conference: s.Conference, Member: s.Member}.AppendBinary(nil) // never errs
		_ = s.endpoint.Announce(s.server, MethodHeartbeat, body)
		s.scheduleHeartbeat()
	})
}
