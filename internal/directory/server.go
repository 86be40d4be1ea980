package directory

import (
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/wire"
)

// RPC method names exposed by a DSA.
const (
	MethodRead   = "x500.read"
	MethodSearch = "x500.search"
	MethodAdd    = "x500.add"
	MethodDelete = "x500.delete"
	MethodModify = "x500.modify"
	MethodList   = "x500.list"
)

// The messages travel as the binary bodies of codec.go.

// dnReq names one entry: the request of x500.read, x500.delete and
// x500.list.
type dnReq struct {
	DN string
}

// searchReq is x500.search's request; searchResp answers it and x500.list.
type searchReq struct {
	Base      string
	Scope     int
	Filter    string
	SizeLimit int
	Deref     bool
}

type searchResp struct {
	Entries []*Entry
	Partial bool
}

type modifyReq struct {
	DN   string
	Mods []Modification
}

// Server is a Directory System Agent: a DIT bound to an rpc endpoint.
type Server struct {
	dit      *DIT
	endpoint *rpc.Endpoint
}

// NewServer installs DSA methods on the endpoint. The returned server owns
// the DIT.
func NewServer(endpoint *rpc.Endpoint, dit *DIT) *Server {
	s := &Server{dit: dit, endpoint: endpoint}
	s.register()
	return s
}

func (s *Server) register() {
	s.endpoint.MustRegister(MethodRead, rpc.Handle(func(_ netsim.Address, req dnReq) (Entry, error) {
		dn, err := ParseDN(req.DN)
		if err != nil {
			return Entry{}, err
		}
		e, err := s.dit.Read(dn)
		if err != nil {
			return Entry{}, err
		}
		return *e, nil
	}))
	s.endpoint.MustRegister(MethodSearch, rpc.Handle(func(_ netsim.Address, req searchReq) (searchResp, error) {
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
		return searchResp{Entries: entries, Partial: partial}, nil
	}))
	s.endpoint.MustRegister(MethodAdd, rpc.Handle(func(_ netsim.Address, e Entry) (wire.Empty, error) {
		return wire.Empty{}, s.dit.Add(e.DN, e.Attrs)
	}))
	s.endpoint.MustRegister(MethodDelete, rpc.Handle(func(_ netsim.Address, req dnReq) (wire.Empty, error) {
		dn, err := ParseDN(req.DN)
		if err != nil {
			return wire.Empty{}, err
		}
		return wire.Empty{}, s.dit.Delete(dn)
	}))
	s.endpoint.MustRegister(MethodModify, rpc.Handle(func(_ netsim.Address, req modifyReq) (wire.Empty, error) {
		dn, err := ParseDN(req.DN)
		if err != nil {
			return wire.Empty{}, err
		}
		return wire.Empty{}, s.dit.Modify(dn, req.Mods...)
	}))
	s.endpoint.MustRegister(MethodList, rpc.Handle(func(_ netsim.Address, req dnReq) (searchResp, error) {
		dn, err := ParseDN(req.DN)
		if err != nil {
			return searchResp{}, err
		}
		entries, err := s.dit.List(dn)
		return searchResp{Entries: entries}, err
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
	e := new(Entry)
	if err := c.endpoint.CallMsg(c.dsa, MethodRead, dnReq{DN: dn}, e); err != nil {
		return nil, err
	}
	return e, nil
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
	c.endpoint.GoMsg(c.dsa, MethodSearch, req, func(r rpc.Result) {
		var resp searchResp
		if err := r.Decode(&resp); err != nil {
			done(nil, err)
			return
		}
		done(resp.Entries, nil)
	})
}

// Add inserts an entry.
func (c *Client) Add(dn string, attrs Attributes) error {
	parsed, err := ParseDN(dn)
	if err != nil {
		return err
	}
	return c.endpoint.CallMsg(c.dsa, MethodAdd, Entry{DN: parsed, Attrs: attrs}, &wire.Empty{})
}

// Delete removes a leaf entry.
func (c *Client) Delete(dn string) error {
	return c.endpoint.CallMsg(c.dsa, MethodDelete, dnReq{DN: dn}, &wire.Empty{})
}

// Modify applies attribute modifications.
func (c *Client) Modify(dn string, mods ...Modification) error {
	return c.endpoint.CallMsg(c.dsa, MethodModify, modifyReq{DN: dn, Mods: mods}, &wire.Empty{})
}

// List returns the immediate children of dn.
func (c *Client) List(dn string) ([]*Entry, error) {
	var resp searchResp
	if err := c.endpoint.CallMsg(c.dsa, MethodList, dnReq{DN: dn}, &resp); err != nil {
		return nil, err
	}
	return resp.Entries, nil
}
