package directory

import (
	"mocca/internal/netsim"
	"mocca/internal/rpc"
)

// MethodSearch is the RPC method a DSA serves: a filtered search.
const MethodSearch = "x500.search"

// The messages travel as the binary bodies of codec.go.

// searchReq is x500.search's request; searchResp answers it.
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

// Server is a Directory System Agent: a DIT bound to an rpc endpoint.
type Server struct {
	dit      *DIT
	endpoint *rpc.Endpoint
}

// NewServer installs the DSA's search method on the endpoint. The returned
// server owns the DIT.
func NewServer(endpoint *rpc.Endpoint, dit *DIT) *Server {
	s := &Server{dit: dit, endpoint: endpoint}
	s.register()
	return s
}

func (s *Server) register() {
	s.endpoint.MustRegister(MethodSearch, rpc.Handle(func(_ netsim.Address, req searchReq) (searchResp, error) {
		return s.search(req)
	}))
}

// search answers x500.search with the entries the DIT lends: the handler
// encodes them before it returns, so the answer copies none.
func (s *Server) search(req searchReq) (searchResp, error) {
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
}

// Client is a Directory User Agent bound to one DSA address.
type Client struct {
	endpoint *rpc.Endpoint
	dsa      netsim.Address
}

// NewClient returns a DUA that issues searches to the DSA at addr.
func NewClient(endpoint *rpc.Endpoint, dsa netsim.Address) *Client {
	return &Client{endpoint: endpoint, dsa: dsa}
}

// GoSearch runs a filtered search under base, safe to call from a
// simulated-clock callback; done fires on the event goroutine. A positive
// sizeLimit caps the answer, which then holds the entries found up to the
// cap.
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
