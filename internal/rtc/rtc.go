// Package rtc is the synchronous-interaction substrate: desktop
// conferencing in the style the paper cites (Shared X [6], Rapport [11]).
// A conference server sequences updates from participants and fans them out
// so every member sees the same state in the same order (WYSIWIS — "what
// you see is what I see"), with floor control for moderated sessions and
// presence tracking with heartbeat eviction.
//
// The CSCW environment's communication model builds its real-time medium on
// this package, and the temporal-transparency bridge replays conference
// output into the MHS for absent members.
package rtc

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"mocca/internal/id"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// RPC methods of the conferencing protocol.
const (
	MethodJoin         = "rtc.join"
	MethodLeave        = "rtc.leave"
	MethodUpdate       = "rtc.update"
	MethodFloorRequest = "rtc.floor.request"
	MethodFloorRelease = "rtc.floor.release"
	MethodHeartbeat    = "rtc.heartbeat"
	// MethodEvent is the one-way fan-out announcement to members.
	MethodEvent = "rtc.event"
)

// Errors surfaced by the conference server.
var (
	ErrNoConference = errors.New("rtc: no such conference")
	ErrNotMember    = errors.New("rtc: not a member")
	ErrFloorHeld    = errors.New("rtc: floor held by another member")
	ErrFloorDenied  = errors.New("rtc: updates require the floor")
	ErrConfExists   = errors.New("rtc: conference already exists")
)

// Mode selects the conference's concurrency discipline.
type Mode int

// Conference modes.
const (
	// ModeOpen lets any member update (brainstorming whiteboard).
	ModeOpen Mode = iota + 1
	// ModeFloor requires holding the floor to update (moderated talk).
	ModeFloor
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOpen:
		return "open"
	case ModeFloor:
		return "floor"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// EventKind discriminates fan-out events.
type EventKind string

// Event kinds.
const (
	EventState    EventKind = "state"    // shared-state mutation
	EventPointer  EventKind = "pointer"  // telepointer move
	EventJoined   EventKind = "joined"   // presence: member arrived
	EventLeft     EventKind = "left"     // presence: member departed
	EventEvicted  EventKind = "evicted"  // presence: member timed out
	EventFloor    EventKind = "floor"    // floor changed hands
	EventSnapshot EventKind = "snapshot" // full state for late joiners
)

// Event is the unit of fan-out. Seq is a per-conference total order
// assigned by the server.
type Event struct {
	Conference string
	Seq        uint64
	Kind       EventKind
	From       string
	Key        string
	Value      string
	State      map[string]string
	At         time.Time
}

// member is a joined participant.
type member struct {
	name     string
	addr     netsim.Address
	lastSeen time.Time
}

// conference is the server-side session state.
type conference struct {
	id      string
	title   string
	mode    Mode
	seq     uint64
	state   map[string]string
	members map[string]*member
	floor   string // member holding the floor; "" = free
	log     []Event
}

// Option configures a Server.
type Option func(*Server)

// WithHeartbeatTimeout sets how long a silent member survives before
// eviction. Zero disables eviction.
func WithHeartbeatTimeout(d time.Duration) Option {
	return func(s *Server) { s.heartbeatTimeout = d }
}

// WithIDs sets the identifier generator.
func WithIDs(g *id.Generator) Option {
	return func(s *Server) { s.ids = g }
}

// Stats counts server activity.
type Stats struct {
	Updates    int64
	Broadcasts int64
	Joins      int64
	Leaves     int64
	Evictions  int64
	FloorOps   int64
}

// Server hosts conferences on a network node (the MCU role).
type Server struct {
	endpoint         *rpc.Endpoint
	clock            vclock.Clock
	ids              *id.Generator
	heartbeatTimeout time.Duration

	mu    sync.Mutex
	confs map[string]*conference
	stats Stats
	done  bool
}

// NewServer binds a conference server to the endpoint.
func NewServer(endpoint *rpc.Endpoint, clock vclock.Clock, opts ...Option) *Server {
	s := &Server{
		endpoint: endpoint,
		clock:    clock,
		confs:    make(map[string]*conference),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.ids == nil {
		s.ids = id.New()
	}
	s.register()
	if s.heartbeatTimeout > 0 {
		s.scheduleSweep()
	}
	return s
}

// Close stops background sweeps.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = true
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// CreateConference registers a conference and returns its id.
func (s *Server) CreateConference(title string, mode Mode) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cid := s.ids.Next("conf")
	if _, ok := s.confs[cid]; ok {
		return "", fmt.Errorf("%w: %q", ErrConfExists, cid)
	}
	s.confs[cid] = &conference{
		id:      cid,
		title:   title,
		mode:    mode,
		state:   make(map[string]string),
		members: make(map[string]*member),
	}
	return cid, nil
}

// Members lists current member names of a conference, sorted.
func (s *Server) Members(cid string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	conf, ok := s.confs[cid]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoConference, cid)
	}
	out := make([]string, 0, len(conf.members))
	for name := range conf.members {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// History returns the event log of a conference (for temporal bridging).
func (s *Server) History(cid string) ([]Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	conf, ok := s.confs[cid]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoConference, cid)
	}
	return append([]Event(nil), conf.log...), nil
}

// request/response bodies, in the binary form of codec.go

type joinReq struct {
	Conference string
	Member     string
	Addr       string
}

type joinResp struct {
	Seq     uint64
	State   map[string]string
	Members []string
	Mode    int
	Title   string
}

// memberReq names a member of a conference: the request of leave, both
// floor calls and the heartbeat announcement.
type memberReq struct {
	Conference string
	Member     string
}

type updateReq struct {
	Conference string
	Member     string
	Kind       EventKind
	Key        string
	Value      string
}

type updateResp struct {
	Seq uint64
}

type floorResp struct {
	Holder string
}

func (s *Server) register() {
	ep := s.endpoint
	ep.MustRegister(MethodJoin, rpc.Handle(func(from netsim.Address, req joinReq) (joinResp, error) {
		return s.join(from, req)
	}))
	ep.MustRegister(MethodLeave, rpc.Handle(func(_ netsim.Address, req memberReq) (wire.Empty, error) {
		return wire.Empty{}, s.leave(req.Conference, req.Member, EventLeft)
	}))
	ep.MustRegister(MethodUpdate, rpc.Handle(func(_ netsim.Address, req updateReq) (updateResp, error) {
		seq, err := s.update(req)
		if err != nil {
			return updateResp{}, err
		}
		return updateResp{Seq: seq}, nil
	}))
	ep.MustRegister(MethodFloorRequest, rpc.Handle(func(_ netsim.Address, req memberReq) (floorResp, error) {
		holder, err := s.floorRequest(req.Conference, req.Member)
		if err != nil {
			return floorResp{}, err
		}
		return floorResp{Holder: holder}, nil
	}))
	ep.MustRegister(MethodFloorRelease, rpc.Handle(func(_ netsim.Address, req memberReq) (floorResp, error) {
		holder, err := s.floorRelease(req.Conference, req.Member)
		if err != nil {
			return floorResp{}, err
		}
		return floorResp{Holder: holder}, nil
	}))
	// A heartbeat is an announcement: the member waits for nothing.
	ep.MustRegister(MethodHeartbeat, func(r rpc.Request) ([]byte, error) {
		var req memberReq
		if err := req.UnmarshalBinary(r.Body); err != nil {
			return nil, err
		}
		s.heartbeat(req.Conference, req.Member)
		return nil, nil
	})
}

func (s *Server) join(from netsim.Address, req joinReq) (joinResp, error) {
	s.mu.Lock()
	conf, ok := s.confs[req.Conference]
	if !ok {
		s.mu.Unlock()
		return joinResp{}, fmt.Errorf("%w: %q", ErrNoConference, req.Conference)
	}
	addr := netsim.Address(req.Addr)
	if addr == "" {
		addr = from
	}
	conf.members[req.Member] = &member{name: req.Member, addr: addr, lastSeen: s.clock.Now()}
	s.stats.Joins++
	state := make(map[string]string, len(conf.state))
	for k, v := range conf.state {
		state[k] = v
	}
	names := make([]string, 0, len(conf.members))
	for n := range conf.members {
		names = append(names, n)
	}
	sort.Strings(names)
	resp := joinResp{Seq: conf.seq, State: state, Members: names, Mode: int(conf.mode), Title: conf.title}
	s.mu.Unlock()

	s.broadcast(req.Conference, Event{Kind: EventJoined, From: req.Member})
	return resp, nil
}

func (s *Server) leave(cid, memberName string, kind EventKind) error {
	s.mu.Lock()
	conf, ok := s.confs[cid]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoConference, cid)
	}
	if _, ok := conf.members[memberName]; !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotMember, memberName)
	}
	delete(conf.members, memberName)
	if conf.floor == memberName {
		conf.floor = "" // the floor frees when its holder leaves
	}
	if kind == EventLeft {
		s.stats.Leaves++
	} else {
		s.stats.Evictions++
	}
	s.mu.Unlock()

	s.broadcast(cid, Event{Kind: kind, From: memberName})
	return nil
}

func (s *Server) update(req updateReq) (uint64, error) {
	s.mu.Lock()
	conf, ok := s.confs[req.Conference]
	if !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrNoConference, req.Conference)
	}
	mem, ok := conf.members[req.Member]
	if !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrNotMember, req.Member)
	}
	if conf.mode == ModeFloor && conf.floor != req.Member {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w (holder %q)", ErrFloorDenied, conf.floor)
	}
	mem.lastSeen = s.clock.Now()
	kind := req.Kind
	if kind == "" {
		kind = EventState
	}
	s.stats.Updates++
	// Sequence, mutate, and snapshot the fan-out set under ONE critical
	// section: the order in which updates hit the state map must be the
	// order replicas see, or WYSIWIS breaks.
	seq, addrs, ev := s.sequenceLocked(conf, Event{Kind: kind, From: req.Member, Key: req.Key, Value: req.Value})
	s.mu.Unlock()

	s.fanOut(addrs, ev)
	return seq, nil
}

func (s *Server) floorRequest(cid, memberName string) (string, error) {
	s.mu.Lock()
	conf, ok := s.confs[cid]
	if !ok {
		s.mu.Unlock()
		return "", fmt.Errorf("%w: %q", ErrNoConference, cid)
	}
	if _, ok := conf.members[memberName]; !ok {
		s.mu.Unlock()
		return "", fmt.Errorf("%w: %q", ErrNotMember, memberName)
	}
	if conf.floor != "" && conf.floor != memberName {
		holder := conf.floor
		s.mu.Unlock()
		return holder, fmt.Errorf("%w: %q", ErrFloorHeld, holder)
	}
	conf.floor = memberName
	s.stats.FloorOps++
	s.mu.Unlock()

	s.broadcast(cid, Event{Kind: EventFloor, From: memberName, Value: "granted"})
	return memberName, nil
}

func (s *Server) floorRelease(cid, memberName string) (string, error) {
	s.mu.Lock()
	conf, ok := s.confs[cid]
	if !ok {
		s.mu.Unlock()
		return "", fmt.Errorf("%w: %q", ErrNoConference, cid)
	}
	if conf.floor != memberName {
		holder := conf.floor
		s.mu.Unlock()
		return holder, fmt.Errorf("%w: %q", ErrFloorHeld, holder)
	}
	conf.floor = ""
	s.stats.FloorOps++
	s.mu.Unlock()

	s.broadcast(cid, Event{Kind: EventFloor, From: memberName, Value: "released"})
	return "", nil
}

func (s *Server) heartbeat(cid, memberName string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if conf, ok := s.confs[cid]; ok {
		if mem, ok := conf.members[memberName]; ok {
			mem.lastSeen = s.clock.Now()
		}
	}
}

// sequenceLocked assigns the next sequence number, applies state-kind
// events to the conference state, logs the event, and snapshots the
// fan-out address set — sorted, so that on a link that draws from the
// network's seeded generator per send (loss, jitter) which member misses
// which event is a function of the seed, not of map order. Caller must hold
// s.mu.
func (s *Server) sequenceLocked(conf *conference, ev Event) (uint64, []netsim.Address, Event) {
	conf.seq++
	ev.Conference = conf.id
	ev.Seq = conf.seq
	ev.At = s.clock.Now()
	if ev.Kind == EventState {
		conf.state[ev.Key] = ev.Value
	}
	conf.log = append(conf.log, ev)
	addrs := make([]netsim.Address, 0, len(conf.members))
	for _, m := range conf.members {
		addrs = append(addrs, m.addr)
	}
	slices.Sort(addrs)
	s.stats.Broadcasts++
	return conf.seq, addrs, ev
}

// broadcast sequences the event, logs it, and announces it to all members.
func (s *Server) broadcast(cid string, ev Event) {
	s.mu.Lock()
	conf, ok := s.confs[cid]
	if !ok {
		s.mu.Unlock()
		return
	}
	_, addrs, sequenced := s.sequenceLocked(conf, ev)
	s.mu.Unlock()

	s.fanOut(addrs, sequenced)
}

// fanOut announces the event to every address, in the order given. The body
// is encoded once and every announcement is handed the same bytes: the
// channel stack copies them into the frame the network keeps.
func (s *Server) fanOut(addrs []netsim.Address, ev Event) {
	body, _ := ev.AppendBinary(make([]byte, 0, 128)) // never errs; a snapshot's state grows it
	for _, addr := range addrs {
		_ = s.endpoint.Announce(addr, MethodEvent, body)
	}
}

// scheduleSweep evicts members whose heartbeat lapsed.
func (s *Server) scheduleSweep() {
	s.clock.AfterFunc(s.heartbeatTimeout/2, func() {
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			return
		}
		type evict struct{ cid, member string }
		var evictions []evict
		cutoff := s.clock.Now().Add(-s.heartbeatTimeout)
		for cid, conf := range s.confs {
			for name, mem := range conf.members {
				if mem.lastSeen.Before(cutoff) {
					evictions = append(evictions, evict{cid, name})
				}
			}
		}
		s.mu.Unlock()
		for _, e := range evictions {
			_ = s.leave(e.cid, e.member, EventEvicted)
		}
		s.scheduleSweep()
	})
}
