package mhs

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"mocca/internal/id"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
)

// RPC method names of the MTA transfer protocol (a simplified P1).
const (
	MethodTransfer = "mhs.transfer"
)

// Errors surfaced by MTA operations.
var (
	ErrNoRoute          = errors.New("mhs: no route to domain")
	ErrUnknownRecipient = errors.New("mhs: unknown local recipient")
	ErrUnknownMailbox   = errors.New("mhs: no such mailbox")
	ErrLoopDetected     = errors.New("mhs: routing loop detected")
	ErrDLExists         = errors.New("mhs: distribution list already exists")
)

// maxTraceHops bounds the relay path length before a loop is declared.
const maxTraceHops = 16

// transfer retry schedule: attempts are spaced by these delays, after which
// the MTA gives up and issues a non-delivery report.
var retrySchedule = []time.Duration{
	2 * time.Second,
	10 * time.Second,
	60 * time.Second,
}

// Option configures an MTA.
type Option func(*MTA)

// WithIDs sets the identifier generator.
func WithIDs(g *id.Generator) Option {
	return func(m *MTA) { m.ids = g }
}

// Stats counts MTA activity.
type Stats struct {
	Submitted     int64
	Relayed       int64
	DeliveredHere int64
	NonDelivered  int64
	DLExpansions  int64
	Retries       int64
}

// MTA is a Message Transfer Agent bound to a network node. It serves one
// management domain (e.g. "gmd.de"), holds message stores for its local
// users, and relays everything else toward peer MTAs.
type MTA struct {
	name     string // MTA identifier used in traces, e.g. "mta.gmd.de"
	domain   string // management domain this MTA is authoritative for
	endpoint *rpc.Endpoint
	clock    vclock.Clock
	ids      *id.Generator

	mu       sync.Mutex
	routes   map[string]netsim.Address // domain -> next-hop MTA node
	boxes    map[string][]*StoredMessage
	boxSeq   uint64
	dls      map[string][]ORName // DL personal-name -> members
	watchers []func(rcpt ORName, msg *StoredMessage)
	stats    Stats
}

// NewMTA creates an MTA authoritative for domain on the given endpoint.
func NewMTA(name, domain string, endpoint *rpc.Endpoint, clock vclock.Clock, opts ...Option) *MTA {
	m := &MTA{
		name:     name,
		domain:   strings.ToLower(domain),
		endpoint: endpoint,
		clock:    clock,
		routes:   make(map[string]netsim.Address),
		boxes:    make(map[string][]*StoredMessage),
		dls:      make(map[string][]ORName),
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.ids == nil {
		m.ids = id.New()
	}
	endpoint.MustRegister(MethodTransfer, m.onTransfer)
	return m
}

// Name returns the MTA's trace identifier.
func (m *MTA) Name() string { return m.name }

// Domain returns the management domain this MTA serves.
func (m *MTA) Domain() string { return m.domain }

// Addr returns the MTA's network address.
func (m *MTA) Addr() netsim.Address { return m.endpoint.Addr() }

// AddRoute installs a next-hop for a remote domain.
func (m *MTA) AddRoute(domain string, nextHop netsim.Address) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.routes[strings.ToLower(domain)] = nextHop
}

// CreateMailbox provisions a local message store for the personal name.
func (m *MTA) CreateMailbox(personal string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := strings.ToLower(personal)
	if _, ok := m.boxes[key]; !ok {
		m.boxes[key] = []*StoredMessage{}
	}
}

// CreateDL registers a distribution list expanded at this MTA. The DL's
// own O/R name is pn=<name> within this MTA's domain.
func (m *MTA) CreateDL(name string, members ...ORName) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := m.dls[key]; ok {
		return fmt.Errorf("%w: %q", ErrDLExists, name)
	}
	m.dls[key] = append([]ORName(nil), members...)
	return nil
}

// Watch registers a callback invoked on every local delivery. Callbacks
// run on the event goroutine and must not block; the comm layer uses this
// to bridge asynchronous messages into live sessions. The message is the
// store's own entry, and its envelope is shared with the other local
// recipients and the relays: a watcher reads them and edits neither.
func (m *MTA) Watch(fn func(rcpt ORName, msg *StoredMessage)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.watchers = append(m.watchers, fn)
}

// Stats returns a snapshot of the counters.
func (m *MTA) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Submit accepts a message from a co-located user agent, stamps it, and
// begins processing. It returns the assigned message id. The MTA takes
// ownership of env: it stamps it, stores it and relays it as it is, and
// from then on it is shared read-only with the stores it is delivered to
// and the relays it leaves by, so the caller neither edits nor reuses it.
func (m *MTA) Submit(e *Envelope) (string, error) {
	if len(e.Recipients) == 0 {
		return "", errors.New("mhs: no recipients")
	}
	if e.MessageID == "" {
		e.MessageID = m.ids.Next("msg")
	}
	if e.Priority == 0 {
		e.Priority = PriorityNormal
	}
	e.Submitted = m.clock.Now()
	m.mu.Lock()
	m.stats.Submitted++
	m.mu.Unlock()

	if !e.Deferred.IsZero() && e.Deferred.After(m.clock.Now()) {
		delay := e.Deferred.Sub(m.clock.Now())
		m.clock.Schedule(delay, func() { m.process(e) })
		return e.MessageID, nil
	}
	m.process(e)
	return e.MessageID, nil
}

// process routes the envelope: local recipients are delivered (or
// expanded), remote ones are grouped by domain, in the order each domain
// first appears, and relayed. process owns env until it stamps the trace;
// after that env is shared read-only with the stores it reaches and the
// relays, so a domain that holds only some of the recipients leaves by a
// shallow copy with its own recipient list, and one that holds them all
// leaves by env itself.
func (m *MTA) process(env *Envelope) {
	env.Trace = append(env.Trace, TraceEntry{MTA: m.name, At: m.clock.Now()})

	rcpts := env.Recipients
	for i, rcpt := range rcpts {
		domain := rcpt.Domain()
		in := func(r ORName) bool { return r.inDomain(domain) }
		out := func(r ORName) bool { return !r.inDomain(domain) }
		switch {
		case slices.ContainsFunc(rcpts[:i], in):
			// The domain's group left with its first recipient.
		case domain == m.domain:
			for _, r := range rcpts[i:] {
				if in(r) {
					m.deliverLocal(env, r)
				}
			}
		case !slices.ContainsFunc(rcpts, out):
			m.relay(env, domain)
		default:
			remote := *env
			remote.Recipients = slices.DeleteFunc(slices.Clone(rcpts[i:]), out)
			m.relay(&remote, domain)
		}
	}
}

// deliverLocal puts the message in the recipient's box, expands DLs, and
// generates reports.
func (m *MTA) deliverLocal(env *Envelope, rcpt ORName) {
	key := strings.ToLower(rcpt.Personal)
	m.mu.Lock()
	members, isDL := m.dls[key]
	m.mu.Unlock()

	if isDL {
		m.expandDL(env, rcpt, members)
		return
	}

	// Reports wrapped for wide-area travel unwrap into Report entries at
	// the originator's store, so local and remote reports look alike.
	if env.Content.Headers["report-is-wrap"] == "true" {
		rep := Report{
			MessageID: env.Content.Headers["report-msgid"],
			Reason:    env.Content.Headers["report-reason"],
			At:        m.clock.Now(),
		}
		switch env.Content.Headers["report-kind"] {
		case ReportDelivered.String():
			rep.Kind = ReportDelivered
		default:
			rep.Kind = ReportNonDelivery
		}
		if n, err := ParseORName(env.Content.Headers["report-rcpt"]); err == nil {
			rep.Recipient = n
		}
		m.storeReport(rcpt, rep)
		return
	}

	m.mu.Lock()
	_, ok := m.boxes[key]
	if !ok {
		m.mu.Unlock()
		m.report(env, Report{
			Kind:      ReportNonDelivery,
			MessageID: env.MessageID,
			Recipient: rcpt,
			Reason:    fmt.Sprintf("unknown recipient %q in domain %q", rcpt.Personal, m.domain),
			At:        m.clock.Now(),
		})
		return
	}
	m.boxSeq++
	stored := &StoredMessage{
		Envelope:    env,
		Seq:         m.boxSeq,
		DeliveredAt: m.clock.Now(),
	}
	m.boxes[key] = append(m.boxes[key], stored)
	m.stats.DeliveredHere++
	// Watch only appends, so the watchers up to this length stay as they
	// are after the lock is released.
	watchers := m.watchers
	m.mu.Unlock()

	for _, w := range watchers {
		w(rcpt, stored)
	}
	if env.RequestDR {
		m.report(env, Report{
			Kind:      ReportDelivered,
			MessageID: env.MessageID,
			Recipient: rcpt,
			At:        m.clock.Now(),
		})
	}
}

// expandDL re-processes the envelope for each member, guarding against
// mutually-including lists.
func (m *MTA) expandDL(env *Envelope, dl ORName, members []ORName) {
	dlKey := dl.String()
	for _, seen := range env.DLHistory {
		if seen == dlKey {
			return // already expanded on this path; drop silently per X.400
		}
	}
	m.mu.Lock()
	m.stats.DLExpansions++
	m.mu.Unlock()

	// Expansion is a fresh submission on behalf of the list: the copy gets
	// a clean trace (DLHistory still guards against mutual inclusion). It
	// shares the content with env and its recipients with the list, all
	// read-only; the history it extends is its own.
	expanded := *env
	expanded.DLHistory = append(slices.Clip(env.DLHistory), dlKey)
	expanded.Recipients = members
	expanded.Trace = nil
	m.process(&expanded)
}

// relay forwards the envelope toward the next hop for the domain. Retries
// and their spacing are the transport's job now: the rpc layer replays the
// call per retrySchedule, and the MTA only decides what a final failure
// means — try a changed route once (failover while the schedule ran), or
// issue a non-delivery report. Loop detection happens on receipt
// (onTransfer), where a revisited trace is decisive.
func (m *MTA) relay(env *Envelope, domain string) {
	m.relayVia(env, domain, false)
}

func (m *MTA) relayVia(env *Envelope, domain string, rerouted bool) {
	m.mu.Lock()
	next, ok := m.routes[domain]
	if ok {
		m.stats.Relayed++
	}
	m.mu.Unlock()
	if !ok {
		m.nonDeliverAll(env, fmt.Sprintf("%v: %q", ErrNoRoute, domain))
		return
	}

	attempts := 1
	m.endpoint.GoMsg(next, MethodTransfer, env, func(r rpc.Result) {
		if r.Err == nil {
			return // accepted downstream
		}
		m.mu.Lock()
		cur, routed := m.routes[domain]
		m.mu.Unlock()
		if routed && cur != next && !rerouted {
			// The domain was re-routed while we were retrying; give the
			// new next-hop one full schedule before giving up.
			m.relayVia(env, domain, true)
			return
		}
		m.nonDeliverAll(env, fmt.Sprintf("transfer to %s failed after %d attempts: %v", next, attempts, r.Err))
	},
		rpc.CallTimeout(5*time.Second),
		rpc.CallBackoff(retrySchedule...),
		rpc.CallOnRetry(func(int) {
			attempts++
			m.mu.Lock()
			m.stats.Retries++
			m.stats.Relayed++
			m.mu.Unlock()
		}))
}

// nonDeliverAll issues an NDR for every recipient on the envelope.
func (m *MTA) nonDeliverAll(env *Envelope, reason string) {
	m.mu.Lock()
	m.stats.NonDelivered += int64(len(env.Recipients))
	m.mu.Unlock()
	for _, rcpt := range env.Recipients {
		m.report(env, Report{
			Kind:      ReportNonDelivery,
			MessageID: env.MessageID,
			Recipient: rcpt,
			Reason:    reason,
			At:        m.clock.Now(),
		})
	}
}

// report routes a report back to the originator. Reports for local
// originators land directly in their store; remote ones travel as report
// envelopes.
func (m *MTA) report(orig *Envelope, rep Report) {
	originator := orig.Originator
	if originator.Domain() == m.domain {
		m.storeReport(originator, rep)
		return
	}
	// Wrap the report as a system message to the originator.
	env := &Envelope{
		MessageID:  m.ids.Next("rpt"),
		Originator: ORName{Personal: "mta-" + m.name, Org: m.domain},
		Recipients: []ORName{originator},
		Priority:   PriorityNormal,
		Content: Content{
			Subject: fmt.Sprintf("%s: %s", rep.Kind, rep.MessageID),
			Headers: map[string]string{
				"report-kind":    rep.Kind.String(),
				"report-msgid":   rep.MessageID,
				"report-rcpt":    rep.Recipient.String(),
				"report-reason":  rep.Reason,
				"report-is-wrap": "true",
			},
		},
	}
	m.mu.Lock()
	next, ok := m.routes[originator.Domain()]
	m.mu.Unlock()
	if !ok {
		return // cannot report back; drop
	}
	m.endpoint.GoMsg(next, MethodTransfer, env, func(rpc.Result) {},
		rpc.CallTimeout(5*time.Second), rpc.CallBackoff(retrySchedule...))
}

// storeReport files a report into a local originator's store.
func (m *MTA) storeReport(originator ORName, rep Report) {
	key := strings.ToLower(originator.Personal)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.boxes[key]; !ok {
		return // originator unknown locally; drop
	}
	m.boxSeq++
	r := rep
	m.boxes[key] = append(m.boxes[key], &StoredMessage{
		Report:      &r,
		Seq:         m.boxSeq,
		DeliveredAt: m.clock.Now(),
	})
}

// onTransfer handles an inbound relay from a peer MTA.
func (m *MTA) onTransfer(req rpc.Request) ([]byte, error) {
	env := new(Envelope)
	if err := env.UnmarshalBinary(req.Body); err != nil {
		return nil, fmt.Errorf("mhs: transfer: %w", err)
	}
	if env.MessageID == "" {
		return nil, errors.New("mhs: transfer without message id")
	}
	// A second revisit of the same MTA (or an absurdly long trace) is a
	// routing loop; a single revisit can be a legitimate hub path.
	if env.visits(m.name) >= 2 || len(env.Trace) > maxTraceHops {
		m.nonDeliverAll(env, fmt.Sprintf("%v: %s revisited", ErrLoopDetected, m.name))
		return nil, nil
	}
	// Accept, then continue processing asynchronously so the transfer ack —
	// an empty reply — returns promptly.
	m.clock.Schedule(0, func() { m.process(env) })
	return nil, nil
}

// Mailbox operations (the P7-ish message store access used by UAs).

// List returns the recipient's messages sorted by priority then arrival.
func (m *MTA) List(personal string) ([]*StoredMessage, error) {
	key := strings.ToLower(personal)
	m.mu.Lock()
	defer m.mu.Unlock()
	box, ok := m.boxes[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMailbox, personal)
	}
	out := make([]*StoredMessage, len(box))
	copy(out, box)
	sortStored(out)
	return out, nil
}

// Unread counts the messages, not reports, in a mailbox: nothing marks a
// message read, so every one counts.
func (m *MTA) Unread(personal string) int {
	key := strings.ToLower(personal)
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, msg := range m.boxes[key] {
		if !msg.IsReport() {
			n++
		}
	}
	return n
}
