package trader

import (
	"sync"
	"time"

	"mocca/internal/netsim"
	"mocca/internal/rpc"
)

// MethodImport is the RPC method a trading service serves: an import.
const MethodImport = "trader.import"

// federationBudget bounds each peer sub-query so a dead peer degrades the
// result instead of consuming the whole client timeout.
const federationBudget = 800 * time.Millisecond

// The messages travel as the binary bodies of codec.go.

// importReq is an ImportRequest on the wire.
type importReq ImportRequest

type importResp struct {
	Offers []Offer
}

// Server exposes a Trader over rpc.
type Server struct {
	trader   *Trader
	endpoint *rpc.Endpoint
}

// NewServer binds the trader to the endpoint and installs its Forwarder: a
// federated query goes to each linked peer as a trader.import call from this
// endpoint, bounded by federationBudget, without blocking the event loop.
func NewServer(endpoint *rpc.Endpoint, t *Trader) *Server {
	s := &Server{trader: t, endpoint: endpoint}
	t.SetForwarder(func(peer netsim.Address, req ImportRequest, done func([]Offer, error)) {
		goImport(endpoint, peer, req, done, rpc.CallTimeout(federationBudget))
	})
	s.register()
	return s
}

// Trader returns the underlying trading function.
func (s *Server) Trader() *Trader { return s.trader }

func (s *Server) register() { s.endpoint.MustRegisterAsync(MethodImport, s.serveImport) }

// answers recycles the buffers import answers are encoded in: reply sends
// the answer before it returns and keeps no reference to it.
var answers = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledAnswer bounds the buffers answers keeps; a larger answer's is
// left to the GC.
const maxPooledAnswer = 64 << 10

// serveImport answers a trader.import call. The offers ImportAsync lends
// are encoded inside its callback, into a pooled buffer, so the answer
// copies no offer.
func (s *Server) serveImport(r rpc.Request, reply func([]byte, error)) {
	var req importReq
	if err := req.UnmarshalBinary(r.Body); err != nil {
		reply(nil, err)
		return
	}
	if req.Importer == "" {
		req.Importer = string(r.From)
	}
	s.trader.ImportAsync(ImportRequest(req), func(offers []Offer, err error) {
		if err != nil {
			reply(nil, err)
			return
		}
		buf := answers.Get().(*[]byte)
		body, err := importResp{Offers: offers}.AppendBinary((*buf)[:0])
		reply(body, err)
		if cap(body) <= maxPooledAnswer {
			*buf = body
			answers.Put(buf)
		}
	})
}

// goImport queries the trader at peer over rpc; done is called exactly once,
// on the event goroutine.
func goImport(ep *rpc.Endpoint, peer netsim.Address, req ImportRequest, done func([]Offer, error), opts ...rpc.CallOption) {
	ep.GoMsg(peer, MethodImport, importReq(req), func(r rpc.Result) {
		var resp importResp
		if err := r.Decode(&resp); err != nil {
			done(nil, err)
			return
		}
		done(resp.Offers, nil)
	}, opts...)
}

// Client is the importer side of the trading protocol. Offers are exported
// where the trader runs, with Trader.Export.
type Client struct {
	endpoint *rpc.Endpoint
	trader   netsim.Address
}

// NewClient returns a client bound to the trader at addr.
func NewClient(endpoint *rpc.Endpoint, trader netsim.Address) *Client {
	return &Client{endpoint: endpoint, trader: trader}
}

// GoImport queries the trader, safe to call from a simulated-clock callback;
// done fires on the event goroutine.
func (c *Client) GoImport(req ImportRequest, done func([]Offer, error)) {
	goImport(c.endpoint, c.trader, req, done)
}
