package directory

import (
	"time"

	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
)

// RPC method names exposed by a DSA.
const (
	MethodRead     = "x500.read"
	MethodSearch   = "x500.search"
	MethodAdd      = "x500.add"
	MethodDelete   = "x500.delete"
	MethodModify   = "x500.modify"
	MethodList     = "x500.list"
	MethodChanges  = "x500.changes"
	MethodSnapshot = "x500.snapshot"
)

// WireEntry is the JSON-safe form of an Entry.
type WireEntry struct {
	DN    string     `json:"dn"`
	Attrs Attributes `json:"attrs"`
}

func toWire(e *Entry) WireEntry {
	return WireEntry{DN: e.DN.String(), Attrs: e.Attrs}
}

func fromWire(w WireEntry) (*Entry, error) {
	dn, err := ParseDN(w.DN)
	if err != nil {
		return nil, err
	}
	attrs := w.Attrs
	if attrs == nil {
		attrs = make(Attributes)
	}
	return &Entry{DN: dn, Attrs: attrs}, nil
}

func entriesFromWire(ws []WireEntry) ([]*Entry, error) {
	out := make([]*Entry, 0, len(ws))
	for _, w := range ws {
		e, err := fromWire(w)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

type readReq struct {
	DN string `json:"dn"`
}

// searchReq and searchResp travel in the binary form of codec.go (x500.list
// answers with a searchResp too).
type searchReq struct {
	Base      string
	Scope     int
	Filter    string
	SizeLimit int
	Deref     bool
}

type searchResp struct {
	Entries []WireEntry
	Partial bool
}

type addReq struct {
	Entry WireEntry `json:"entry"`
}

type modifyReq struct {
	DN   string         `json:"dn"`
	Mods []Modification `json:"mods"`
}

type changesReq struct {
	After uint64 `json:"after"`
}

type changesResp struct {
	Changes []Change `json:"changes"`
	// Last is the master's newest sequence number; a shadow whose local
	// sequence trails Last while Changes is empty knows the log was
	// compacted underneath it and must full-resync.
	Last uint64 `json:"last"`
}

type snapshotResp struct {
	Entries []WireEntry `json:"entries"`
	Seq     uint64      `json:"seq"`
}

type okResp struct {
	OK bool `json:"ok"`
}

// Server is a Directory System Agent: a DIT bound to an rpc endpoint.
type Server struct {
	dit      *DIT
	endpoint *rpc.Endpoint
	readOnly bool // true for shadows
}

// NewServer installs DSA methods on the endpoint. The returned server owns
// the DIT.
func NewServer(endpoint *rpc.Endpoint, dit *DIT) *Server {
	s := &Server{dit: dit, endpoint: endpoint}
	s.register()
	return s
}

// DIT exposes the underlying tree (primarily for tests and local seeding).
func (s *Server) DIT() *DIT { return s.dit }

// SetReadOnly marks the server a shadow: write operations are rejected.
func (s *Server) SetReadOnly(ro bool) { s.readOnly = ro }

func (s *Server) register() {
	s.endpoint.MustRegister(MethodRead, rpc.HandleJSON(func(_ netsim.Address, req readReq) (WireEntry, error) {
		dn, err := ParseDN(req.DN)
		if err != nil {
			return WireEntry{}, err
		}
		e, err := s.dit.Read(dn)
		if err != nil {
			return WireEntry{}, err
		}
		return toWire(e), nil
	}))
	s.endpoint.MustRegister(MethodSearch, rpc.HandleJSON(func(_ netsim.Address, req searchReq) (searchResp, error) {
		base, err := ParseDN(req.Base)
		if err != nil {
			return searchResp{}, err
		}
		var filter Filter
		if req.Filter != "" {
			filter, err = ParseFilter(req.Filter)
			if err != nil {
				return searchResp{}, err
			}
		}
		entries, err := s.dit.Search(SearchRequest{
			Base:         base,
			Scope:        Scope(req.Scope),
			Filter:       filter,
			SizeLimit:    req.SizeLimit,
			DerefAliases: req.Deref,
		})
		partial := false
		if err == ErrSizeLimit {
			partial = true
		} else if err != nil {
			return searchResp{}, err
		}
		resp := searchResp{Partial: partial}
		for _, e := range entries {
			resp.Entries = append(resp.Entries, toWire(e))
		}
		return resp, nil
	}))
	s.endpoint.MustRegister(MethodAdd, rpc.HandleJSON(func(_ netsim.Address, req addReq) (okResp, error) {
		if s.readOnly {
			return okResp{}, ErrReadOnlyShard
		}
		e, err := fromWire(req.Entry)
		if err != nil {
			return okResp{}, err
		}
		if err := s.dit.Add(e.DN, e.Attrs); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	}))
	s.endpoint.MustRegister(MethodDelete, rpc.HandleJSON(func(_ netsim.Address, req readReq) (okResp, error) {
		if s.readOnly {
			return okResp{}, ErrReadOnlyShard
		}
		dn, err := ParseDN(req.DN)
		if err != nil {
			return okResp{}, err
		}
		if err := s.dit.Delete(dn); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	}))
	s.endpoint.MustRegister(MethodModify, rpc.HandleJSON(func(_ netsim.Address, req modifyReq) (okResp, error) {
		if s.readOnly {
			return okResp{}, ErrReadOnlyShard
		}
		dn, err := ParseDN(req.DN)
		if err != nil {
			return okResp{}, err
		}
		if err := s.dit.Modify(dn, req.Mods...); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	}))
	s.endpoint.MustRegister(MethodList, rpc.HandleJSON(func(_ netsim.Address, req readReq) (searchResp, error) {
		dn, err := ParseDN(req.DN)
		if err != nil {
			return searchResp{}, err
		}
		entries, err := s.dit.List(dn)
		if err != nil {
			return searchResp{}, err
		}
		var resp searchResp
		for _, e := range entries {
			resp.Entries = append(resp.Entries, toWire(e))
		}
		return resp, nil
	}))
	s.endpoint.MustRegister(MethodChanges, rpc.HandleJSON(func(_ netsim.Address, req changesReq) (changesResp, error) {
		return changesResp{Changes: s.dit.Changes(req.After), Last: s.dit.LastSeq()}, nil
	}))
	s.endpoint.MustRegister(MethodSnapshot, rpc.HandleJSON(func(_ netsim.Address, _ struct{}) (snapshotResp, error) {
		entries, seq := s.dit.Snapshot()
		resp := snapshotResp{Seq: seq}
		for _, e := range entries {
			resp.Entries = append(resp.Entries, toWire(e))
		}
		return resp, nil
	}))
}

// Client is a Directory User Agent bound to one DSA address.
type Client struct {
	endpoint *rpc.Endpoint
	dsa      netsim.Address
}

// NewClient returns a DUA that issues operations to the DSA at addr.
func NewClient(endpoint *rpc.Endpoint, dsa netsim.Address) *Client {
	return &Client{endpoint: endpoint, dsa: dsa}
}

// Read fetches one entry.
func (c *Client) Read(dn string) (*Entry, error) {
	var w WireEntry
	if err := c.endpoint.CallJSON(c.dsa, MethodRead, readReq{DN: dn}, &w); err != nil {
		return nil, err
	}
	return fromWire(w)
}

// Search runs a filtered search under base: GoSearch without a size limit,
// plus a wait. Blocking; see package rpc for simulated-clock usage.
func (c *Client) Search(base string, scope Scope, filter string) ([]*Entry, error) {
	var entries []*Entry
	ch := make(chan error, 1)
	c.GoSearch(base, scope, filter, 0, func(found []*Entry, err error) {
		entries = found
		ch <- err
	})
	err := <-ch
	return entries, err
}

// GoSearch is Search's asynchronous form, safe to call from a simulated-clock
// callback; done fires on the event goroutine. A positive sizeLimit caps the
// answer, which then holds the entries found up to the cap.
func (c *Client) GoSearch(base string, scope Scope, filter string, sizeLimit int, done func([]*Entry, error)) {
	req := searchReq{Base: base, Scope: int(scope), Filter: filter, SizeLimit: sizeLimit}
	c.endpoint.GoJSON(c.dsa, MethodSearch, req, func(r rpc.Result) {
		var resp searchResp
		if err := r.Decode(&resp); err != nil {
			done(nil, err)
			return
		}
		done(entriesFromWire(resp.Entries))
	})
}

// Add inserts an entry.
func (c *Client) Add(dn string, attrs Attributes) error {
	var resp okResp
	return c.endpoint.CallJSON(c.dsa, MethodAdd, addReq{Entry: WireEntry{DN: dn, Attrs: attrs}}, &resp)
}

// Delete removes a leaf entry.
func (c *Client) Delete(dn string) error {
	var resp okResp
	return c.endpoint.CallJSON(c.dsa, MethodDelete, readReq{DN: dn}, &resp)
}

// Modify applies attribute modifications.
func (c *Client) Modify(dn string, mods ...Modification) error {
	var resp okResp
	return c.endpoint.CallJSON(c.dsa, MethodModify, modifyReq{DN: dn, Mods: mods}, &resp)
}

// List returns the immediate children of dn.
func (c *Client) List(dn string) ([]*Entry, error) {
	var resp searchResp
	if err := c.endpoint.CallJSON(c.dsa, MethodList, readReq{DN: dn}, &resp); err != nil {
		return nil, err
	}
	return entriesFromWire(resp.Entries)
}

// Shadow replicates a master DSA into a local DIT by periodically pulling
// the changelog, giving read access at remote sites without wide-area
// round-trips — the X.525 shadowing model.
type Shadow struct {
	local    *DIT
	endpoint *rpc.Endpoint
	master   netsim.Address
	clock    vclock.Clock
	interval time.Duration
	stopped  chan struct{}
	timer    vclock.Timer
}

// NewShadow creates a shadow that pulls from master every interval. Call
// Start to begin and Stop to halt.
func NewShadow(endpoint *rpc.Endpoint, master netsim.Address, local *DIT, clock vclock.Clock, interval time.Duration) *Shadow {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	return &Shadow{
		local:    local,
		endpoint: endpoint,
		master:   master,
		clock:    clock,
		interval: interval,
		stopped:  make(chan struct{}),
	}
}

// Start triggers an immediate sync and schedules periodic ones.
func (sh *Shadow) Start() {
	sh.tick()
}

// Stop halts periodic syncing.
func (sh *Shadow) Stop() {
	select {
	case <-sh.stopped:
		return
	default:
	}
	close(sh.stopped)
	if sh.timer != nil {
		sh.timer.Stop()
	}
}

func (sh *Shadow) tick() {
	select {
	case <-sh.stopped:
		return
	default:
	}
	sh.SyncOnce()
	sh.timer = sh.clock.AfterFunc(sh.interval, sh.tick)
}

// SyncOnce pulls and applies outstanding changes; on a sequence gap it
// falls back to a full snapshot.
func (sh *Shadow) SyncOnce() {
	after := sh.local.LastSeq()
	sh.endpoint.GoJSON(sh.master, MethodChanges, changesReq{After: after}, func(r rpc.Result) {
		var resp changesResp
		if err := r.Decode(&resp); err != nil {
			return // transient; next tick retries
		}
		for _, ch := range resp.Changes {
			if err := sh.local.Apply(ch); err != nil {
				sh.fullResync()
				return
			}
		}
		if resp.Last > sh.local.LastSeq() {
			// The master compacted records we never saw.
			sh.fullResync()
		}
	})
}

func (sh *Shadow) fullResync() {
	sh.endpoint.GoJSON(sh.master, MethodSnapshot, struct{}{}, func(r rpc.Result) {
		var resp snapshotResp
		if err := r.Decode(&resp); err != nil {
			return
		}
		if entries, err := entriesFromWire(resp.Entries); err == nil {
			_ = sh.local.LoadSnapshot(entries, resp.Seq)
		}
	})
}
