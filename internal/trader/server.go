package trader

import (
	"time"

	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/wire"
)

// RPC method names exposed by a trading service.
const (
	MethodExport   = "trader.export"
	MethodWithdraw = "trader.withdraw"
	MethodImport   = "trader.import"
	MethodRegType  = "trader.regtype"
)

// federationBudget bounds each peer sub-query so a dead peer degrades the
// result instead of consuming the whole client timeout.
const federationBudget = 800 * time.Millisecond

// The messages travel as the binary bodies of codec.go; an Offer is
// trader.export's request.

type withdrawReq struct {
	OfferID string
}

// importReq is an ImportRequest on the wire.
type importReq ImportRequest

type importResp struct {
	Offers []Offer
}

type regTypeReq struct {
	Name       string
	Supertypes []string
}

// Server exposes a Trader over rpc and installs a network Forwarder so
// federation links traverse the simulated network.
type Server struct {
	trader   *Trader
	endpoint *rpc.Endpoint
}

// NewServer binds the trader to the endpoint and installs an asynchronous
// network forwarder so federated queries traverse the simulated network
// without blocking the event loop.
func NewServer(endpoint *rpc.Endpoint, t *Trader) *Server {
	s := &Server{trader: t, endpoint: endpoint}
	t.SetAsyncForwarder(func(peer netsim.Address, req ImportRequest, done func([]Offer, error)) {
		goImport(endpoint, peer, req, done, rpc.CallTimeout(federationBudget))
	})
	s.register()
	return s
}

// Trader returns the underlying trading function.
func (s *Server) Trader() *Trader { return s.trader }

func (s *Server) register() {
	s.endpoint.MustRegister(MethodExport, rpc.Handle(func(_ netsim.Address, o Offer) (wire.Empty, error) {
		return wire.Empty{}, s.trader.Export(o)
	}))
	s.endpoint.MustRegister(MethodWithdraw, rpc.Handle(func(_ netsim.Address, req withdrawReq) (wire.Empty, error) {
		return wire.Empty{}, s.trader.Withdraw(req.OfferID)
	}))
	s.endpoint.MustRegister(MethodRegType, rpc.Handle(func(_ netsim.Address, req regTypeReq) (wire.Empty, error) {
		return wire.Empty{}, s.trader.RegisterType(req.Name, req.Supertypes...)
	}))
	s.endpoint.MustRegisterAsync(MethodImport, func(r rpc.Request, reply func([]byte, error)) {
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
			reply(importResp{Offers: offers}.AppendBinary(nil))
		})
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

// Client wraps the importer/exporter side of the trading protocol.
type Client struct {
	endpoint *rpc.Endpoint
	trader   netsim.Address
}

// NewClient returns a client bound to the trader at addr.
func NewClient(endpoint *rpc.Endpoint, trader netsim.Address) *Client {
	return &Client{endpoint: endpoint, trader: trader}
}

// RegisterType declares a service type remotely.
func (c *Client) RegisterType(name string, supertypes ...string) error {
	return c.endpoint.CallMsg(c.trader, MethodRegType, regTypeReq{Name: name, Supertypes: supertypes}, &wire.Empty{})
}

// Export registers an offer remotely.
func (c *Client) Export(o Offer) error {
	return c.endpoint.CallMsg(c.trader, MethodExport, o, &wire.Empty{})
}

// Withdraw removes an offer remotely.
func (c *Client) Withdraw(offerID string) error {
	return c.endpoint.CallMsg(c.trader, MethodWithdraw, withdrawReq{OfferID: offerID}, &wire.Empty{})
}

// Import queries the trader: GoImport plus a wait. Blocking; see package rpc
// for simulated-clock usage.
func (c *Client) Import(req ImportRequest) ([]Offer, error) {
	var offers []Offer
	ch := make(chan error, 1)
	c.GoImport(req, func(found []Offer, err error) {
		offers = found
		ch <- err
	})
	err := <-ch
	return offers, err
}

// GoImport is Import's asynchronous form, safe to call from a simulated-clock
// callback; done fires on the event goroutine.
func (c *Client) GoImport(req ImportRequest, done func([]Offer, error)) {
	goImport(c.endpoint, c.trader, req, done)
}
