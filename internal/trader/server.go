package trader

import (
	"time"

	"mocca/internal/directory"
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

// WireOffer is the JSON-safe form of an Offer.
type WireOffer struct {
	ID          string               `json:"id"`
	ServiceType string               `json:"serviceType"`
	Provider    string               `json:"provider"`
	Properties  directory.Attributes `json:"properties,omitempty"`
}

func toWire(o Offer) WireOffer {
	return WireOffer{
		ID:          o.ID,
		ServiceType: o.ServiceType,
		Provider:    string(o.Provider),
		Properties:  o.Properties,
	}
}

func fromWire(w WireOffer) Offer {
	props := w.Properties
	if props == nil {
		props = make(directory.Attributes)
	}
	return Offer{
		ID:          w.ID,
		ServiceType: w.ServiceType,
		Provider:    netsim.Address(w.Provider),
		Properties:  props,
	}
}

type exportReq struct {
	Offer WireOffer `json:"offer"`
}

type withdrawReq struct {
	OfferID string `json:"offerId"`
}

// importReq is an ImportRequest on the wire; it and importResp travel in the
// binary form of codec.go.
type importReq ImportRequest

type importResp struct {
	Offers []WireOffer
}

type regTypeReq struct {
	Name       string   `json:"name"`
	Supertypes []string `json:"supertypes,omitempty"`
}

type okResp struct {
	OK bool `json:"ok"`
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
	s.endpoint.MustRegister(MethodExport, rpc.HandleJSON(func(_ netsim.Address, req exportReq) (okResp, error) {
		if err := s.trader.Export(fromWire(req.Offer)); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	}))
	s.endpoint.MustRegister(MethodWithdraw, rpc.HandleJSON(func(_ netsim.Address, req withdrawReq) (okResp, error) {
		if err := s.trader.Withdraw(req.OfferID); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	}))
	s.endpoint.MustRegister(MethodRegType, rpc.HandleJSON(func(_ netsim.Address, req regTypeReq) (okResp, error) {
		if err := s.trader.RegisterType(req.Name, req.Supertypes...); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	}))
	s.endpoint.MustRegisterAsync(MethodImport, func(r rpc.Request, reply func([]byte, error)) {
		var req importReq
		if len(r.Body) > 0 {
			if err := wire.DecodeBody(r.Body, &req); err != nil {
				reply(nil, err)
				return
			}
		}
		if req.Importer == "" {
			req.Importer = string(r.From)
		}
		s.trader.ImportAsync(ImportRequest(req), func(offers []Offer, err error) {
			if err != nil {
				reply(nil, err)
				return
			}
			resp := importResp{Offers: make([]WireOffer, len(offers))}
			for i, o := range offers {
				resp.Offers[i] = toWire(o)
			}
			reply(wire.EncodeBody(resp))
		})
	})
}

// goImport queries the trader at peer over rpc; done is called exactly once,
// on the event goroutine.
func goImport(ep *rpc.Endpoint, peer netsim.Address, req ImportRequest, done func([]Offer, error), opts ...rpc.CallOption) {
	ep.GoJSON(peer, MethodImport, importReq(req), func(r rpc.Result) {
		var resp importResp
		if err := r.Decode(&resp); err != nil {
			done(nil, err)
			return
		}
		out := make([]Offer, len(resp.Offers))
		for i, w := range resp.Offers {
			out[i] = fromWire(w)
		}
		done(out, nil)
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
	var resp okResp
	return c.endpoint.CallJSON(c.trader, MethodRegType, regTypeReq{Name: name, Supertypes: supertypes}, &resp)
}

// Export registers an offer remotely.
func (c *Client) Export(o Offer) error {
	var resp okResp
	return c.endpoint.CallJSON(c.trader, MethodExport, exportReq{Offer: toWire(o)}, &resp)
}

// Withdraw removes an offer remotely.
func (c *Client) Withdraw(offerID string) error {
	var resp okResp
	return c.endpoint.CallJSON(c.trader, MethodWithdraw, withdrawReq{OfferID: offerID}, &resp)
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
