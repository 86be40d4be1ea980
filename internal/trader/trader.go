// Package trader implements the ODP trading function: service providers
// export offers describing typed services with properties; importers query
// for offers matching a service type and a constraint expression.
//
// Section 6.1 of the paper proposes that "the organisational knowledge base
// considered in the Mocca environment will be associated to the trader,
// containing or dictating among other the trading policy" — so this trader
// accepts pluggable admission policies consulted on every import, and the
// org model installs one (see internal/org).
//
// Traders federate: a trader may hold links to peer traders and forward
// queries to them over the network with a hop limit (ImportAsync), modelling
// interworking between organisations' trading domains.
package trader

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"mocca/internal/directory"
	"mocca/internal/netsim"
)

// Offer is an exported service offer.
type Offer struct {
	ID          string
	ServiceType string
	// Provider is the address an importer invokes to use the service.
	Provider netsim.Address
	// Properties describe the offer; constraints match against them.
	Properties directory.Attributes
}

// clone deep-copies the offer.
func (o Offer) clone() Offer {
	out := o
	if o.Properties != nil {
		out.Properties = o.Properties.Clone()
	}
	return out
}

// ImportRequest is a trader query.
type ImportRequest struct {
	// ServiceType to match; subtypes of it also match.
	ServiceType string
	// Constraint is a directory filter string over offer properties;
	// empty means all offers of the type.
	Constraint string
	// MaxOffers caps the result; zero means all.
	MaxOffers int
	// OrderBy names a property to sort descending by (numeric-aware);
	// empty keeps offer-id order.
	OrderBy string
	// Importer identifies who is asking, for policy decisions.
	Importer string
	// hops guards federated forwarding.
	Hops int
}

// Policy vets offers per-import: it may exclude an offer for this importer.
// Policies implement the paper's "trading policy dictated by the
// organisational knowledge base".
type Policy interface {
	// Admit reports whether the importer may see the offer. The offer shares
	// its properties with the trader's store: Admit must not edit it.
	Admit(importer string, offer Offer) bool
	// Name identifies the policy in diagnostics.
	Name() string
}

// PolicyFunc adapts a function to Policy.
type PolicyFunc struct {
	ID string
	Fn func(importer string, offer Offer) bool
}

// Admit implements Policy.
func (p PolicyFunc) Admit(importer string, offer Offer) bool { return p.Fn(importer, offer) }

// Name implements Policy.
func (p PolicyFunc) Name() string { return p.ID }

// Errors returned by the trader.
var (
	ErrUnknownType  = errors.New("trader: unknown service type")
	ErrUnknownOffer = errors.New("trader: unknown offer")
	ErrTypeExists   = errors.New("trader: service type already registered")
	ErrCycle        = errors.New("trader: service type cycle")
)

// MaxFederationHops bounds query forwarding across trader links.
const MaxFederationHops = 4

// Forwarder forwards an import request to a federated peer and delivers the
// peer's offers through done (called exactly once). The rpc server installs
// a network-backed forwarder, so federation never blocks the event loop.
type Forwarder func(peer netsim.Address, req ImportRequest, done func([]Offer, error))

// Trader is a trading function instance. Use New.
type Trader struct {
	mu       sync.RWMutex
	types    map[string][]string // type -> direct supertypes
	offers   map[string]Offer
	byType   map[string]map[string]bool // type -> offer ids
	policies []Policy
	links    []netsim.Address
	forward  Forwarder
	stats    Stats
}

// Stats counts trader activity.
type Stats struct {
	Exports   int64
	Withdraws int64
	Imports   int64
	Matched   int64
	Excluded  int64 // offers vetoed by policy
	Forwarded int64 // queries sent to federated peers
}

// New creates an empty trader.
func New() *Trader {
	return &Trader{
		types:  make(map[string][]string),
		offers: make(map[string]Offer),
		byType: make(map[string]map[string]bool),
	}
}

// RegisterType declares a service type with optional supertypes. An offer
// of a subtype satisfies imports of any (transitive) supertype.
func (t *Trader) RegisterType(name string, supertypes ...string) error {
	name = strings.ToLower(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.types[name]; ok {
		return fmt.Errorf("%w: %q", ErrTypeExists, name)
	}
	for _, s := range supertypes {
		if _, ok := t.types[strings.ToLower(s)]; !ok {
			return fmt.Errorf("%w: supertype %q", ErrUnknownType, s)
		}
	}
	lowered := make([]string, len(supertypes))
	for i, s := range supertypes {
		lowered[i] = strings.ToLower(s)
	}
	t.types[name] = lowered
	return nil
}

// HasType reports whether the service type is registered.
func (t *Trader) HasType(name string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.types[strings.ToLower(name)]
	return ok
}

// conformsLocked reports whether sub is the same as or a transitive subtype
// of super.
func (t *Trader) conformsLocked(sub, super string) bool {
	if sub == super {
		return true
	}
	seen := map[string]bool{}
	stack := []string{sub}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == super {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		stack = append(stack, t.types[cur]...)
	}
	return false
}

// Export registers an offer and returns nothing; the caller supplies the
// offer ID (typically from the id generator) so exports are idempotent at
// higher layers.
func (t *Trader) Export(o Offer) error {
	st := strings.ToLower(o.ServiceType)
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.types[st]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownType, o.ServiceType)
	}
	o.ServiceType = st
	if o.Properties == nil {
		o.Properties = make(directory.Attributes)
	}
	t.offers[o.ID] = o.clone()
	if t.byType[st] == nil {
		t.byType[st] = make(map[string]bool)
	}
	t.byType[st][o.ID] = true
	t.stats.Exports++
	return nil
}

// Withdraw removes an offer.
func (t *Trader) Withdraw(offerID string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.offers[offerID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownOffer, offerID)
	}
	delete(t.offers, offerID)
	delete(t.byType[o.ServiceType], offerID)
	t.stats.Withdraws++
	return nil
}

// ModifyOffer replaces the properties of an existing offer.
func (t *Trader) ModifyOffer(offerID string, props directory.Attributes) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.offers[offerID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownOffer, offerID)
	}
	o.Properties = props.Clone()
	t.offers[offerID] = o
	return nil
}

// AddPolicy installs an admission policy; all policies must admit an offer
// for it to be returned.
func (t *Trader) AddPolicy(p Policy) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.policies = append(t.policies, p)
}

// LinkPeer federates this trader with a peer trader reachable at addr.
func (t *Trader) LinkPeer(addr netsim.Address) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.links = append(t.links, addr)
}

// SetForwarder installs the transport used to query federated peers.
func (t *Trader) SetForwarder(f Forwarder) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.forward = f
}

// Stats returns a snapshot of the counters.
func (t *Trader) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.stats
}

// Len returns the number of live offers.
func (t *Trader) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.offers)
}

// matchLocal evaluates the request against local offers only.
func (t *Trader) matchLocal(req ImportRequest) ([]Offer, error) {
	st := strings.ToLower(req.ServiceType)
	var constraint directory.Filter
	if req.Constraint != "" {
		var err error
		constraint, err = directory.ParseFilter(req.Constraint)
		if err != nil {
			return nil, err
		}
	}

	t.mu.Lock()
	t.stats.Imports++
	if _, ok := t.types[st]; !ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, req.ServiceType)
	}
	// Collect local candidates: offers whose type conforms to the request.
	// A stored offer is replaced, never edited (Export stores a clone,
	// ModifyOffer installs a fresh map), so candidates share their properties
	// with the store; finalize copies the few it returns.
	var local []Offer
	for typ, ids := range t.byType {
		if !t.conformsLocked(typ, st) {
			continue
		}
		for oid := range ids {
			local = append(local, t.offers[oid])
		}
	}
	policies := append([]Policy(nil), t.policies...)
	t.mu.Unlock()

	var out []Offer
	for _, o := range local {
		if constraint != nil && !constraint.Matches(o.Properties) {
			continue
		}
		admitted := true
		for _, p := range policies {
			if !p.Admit(req.Importer, o) {
				admitted = false
				break
			}
		}
		if !admitted {
			t.mu.Lock()
			t.stats.Excluded++
			t.mu.Unlock()
			continue
		}
		out = append(out, o)
	}
	return out, nil
}

// finalize dedupes, orders, and truncates a combined result set, and gives
// the caller its own copy of what is left.
func (t *Trader) finalize(req ImportRequest, offers []Offer) []Offer {
	offers = dedupeOffers(offers)
	sortOffers(offers, req.OrderBy)
	if req.MaxOffers > 0 && len(offers) > req.MaxOffers {
		offers = offers[:req.MaxOffers]
	}
	for i := range offers {
		offers[i] = offers[i].clone()
	}
	t.mu.Lock()
	t.stats.Matched += int64(len(offers))
	t.mu.Unlock()
	return offers
}

// Import answers a query from this trader's own offers, consulting its
// policies; it asks no federated peer. ImportAsync is the federated query.
func (t *Trader) Import(req ImportRequest) ([]Offer, error) {
	out, err := t.matchLocal(req)
	if err != nil {
		return nil, err
	}
	return t.finalize(req, out), nil
}

// ImportAsync answers a query, fanning out to federated peers through the
// Forwarder, and calls done exactly once with the combined result. It never
// blocks, so it is safe to call from inside network event handlers.
func (t *Trader) ImportAsync(req ImportRequest, done func([]Offer, error)) {
	out, err := t.matchLocal(req)
	if err != nil {
		done(nil, err)
		return
	}
	t.mu.Lock()
	links := append([]netsim.Address(nil), t.links...)
	forward := t.forward
	t.mu.Unlock()

	if forward == nil || req.Hops >= MaxFederationHops || len(links) == 0 {
		done(t.finalize(req, out), nil)
		return
	}

	fwd := req
	fwd.Hops++
	// Aggregate peer replies; outstanding is only touched from event
	// callbacks, guarded by agg.mu for safety under a real clock.
	agg := &importAggregator{trader: t, req: req, offers: out, outstanding: len(links), done: done}
	for _, peer := range links {
		t.mu.Lock()
		t.stats.Forwarded++
		t.mu.Unlock()
		forward(peer, fwd, agg.add)
	}
}

type importAggregator struct {
	trader      *Trader
	req         ImportRequest
	mu          sync.Mutex
	offers      []Offer
	outstanding int
	done        func([]Offer, error)
}

// add folds one peer reply into the aggregate; unreachable peers degrade
// the result rather than failing the query.
func (a *importAggregator) add(offers []Offer, err error) {
	a.mu.Lock()
	if err == nil {
		a.offers = append(a.offers, offers...)
	}
	a.outstanding--
	finished := a.outstanding == 0
	combined := a.offers
	a.mu.Unlock()
	if finished {
		a.done(a.trader.finalize(a.req, combined), nil)
	}
}

func dedupeOffers(offers []Offer) []Offer {
	seen := make(map[string]bool, len(offers))
	out := offers[:0]
	for _, o := range offers {
		if seen[o.ID] {
			continue
		}
		seen[o.ID] = true
		out = append(out, o)
	}
	return out
}

// sortOffers orders by the named property descending (numeric-aware), then
// by ID for stability; with no property it orders by ID.
func sortOffers(offers []Offer, orderBy string) {
	orderBy = strings.ToLower(orderBy)
	sort.SliceStable(offers, func(i, j int) bool {
		if orderBy != "" {
			vi := offers[i].Properties.First(orderBy)
			vj := offers[j].Properties.First(orderBy)
			if c := compareProp(vi, vj); c != 0 {
				return c > 0 // descending: best first
			}
		}
		return offers[i].ID < offers[j].ID
	})
}

// compareProp compares numerically when possible, else as strings.
func compareProp(a, b string) int {
	ai, aok := parseInt(a)
	bi, bok := parseInt(b)
	if aok && bok {
		switch {
		case ai < bi:
			return -1
		case ai > bi:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a, b)
}

func parseInt(s string) (int64, bool) {
	if s == "" {
		return 0, false
	}
	neg := false
	i := 0
	if s[0] == '-' {
		neg = true
		i = 1
		if len(s) == 1 {
			return 0, false
		}
	}
	var v int64
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		v = v*10 + int64(s[i]-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}
