package activity

import (
	"errors"
	"fmt"
	"time"
)

// NegotiationKind distinguishes what is being negotiated, per §4:
// "mechanisms for negotiating the responsibility for activities" and
// "mechanisms for negotiating the division of competence within
// activities".
type NegotiationKind string

// Negotiation kinds.
const (
	// NegResponsibility proposes handing activity coordination to another
	// member.
	NegResponsibility NegotiationKind = "responsibility"
	// NegCompetence proposes assigning a competence area (a named slice
	// of the work) to a member.
	NegCompetence NegotiationKind = "competence"
)

// NegotiationState is the protocol state.
type NegotiationState int

// Negotiation states.
const (
	NegPending NegotiationState = iota + 1
	NegAccepted
)

// Negotiation is a two-party proposal the responder accepts —
// deliberately minimal, the neutral mechanism the paper asks for rather
// than a full speech-act model.
type Negotiation struct {
	ID       string
	Activity string
	Kind     NegotiationKind
	From     string // proposer
	To       string // responder
	// Competence names the proposed division of work (NegCompetence).
	Competence string
	State      NegotiationState
	Opened     time.Time
	Closed     time.Time
}

// clone copies the negotiation.
func (n *Negotiation) clone() *Negotiation {
	out := *n
	return &out
}

// Errors of the negotiation protocol.
var (
	ErrUnknownNegotiation = errors.New("activity: unknown negotiation")
	ErrNegotiationClosed  = errors.New("activity: negotiation already closed")
	ErrNotResponder       = errors.New("activity: only the responder may answer")
)

// Propose opens a negotiation from actor to responder. Both must be
// members of the activity.
func (r *Registry) Propose(actor, actID string, kind NegotiationKind, responder, competence string) (*Negotiation, error) {
	r.mu.Lock()
	a, ok := r.acts[actID]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownActivity, actID)
	}
	if _, ok := a.Members[actor]; !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: proposer %q", ErrNotMember, actor)
	}
	if _, ok := a.Members[responder]; !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: responder %q", ErrNotMember, responder)
	}
	n := &Negotiation{
		ID:         r.ids.Next("neg"),
		Activity:   actID,
		Kind:       kind,
		From:       actor,
		To:         responder,
		Competence: competence,
		State:      NegPending,
		Opened:     r.clock.Now(),
	}
	r.negs[n.ID] = n
	out := n.clone()
	r.mu.Unlock()
	return out, nil
}

// Accept closes the negotiation positively and applies its effect:
// responsibility negotiations hand over coordination; competence
// negotiations record the competence as the responder's role annotation.
func (r *Registry) Accept(actor, negID string) (*Negotiation, error) {
	r.mu.Lock()
	n, ok := r.negs[negID]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownNegotiation, negID)
	}
	if n.State != NegPending {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNegotiationClosed, negID)
	}
	if n.To != actor {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotResponder, actor)
	}
	n.State = NegAccepted
	n.Closed = r.clock.Now()

	a := r.acts[n.Activity]
	var ev Event
	switch n.Kind {
	case NegResponsibility:
		a.Coordinator = n.To
		a.Members[n.To] = "coordinator"
		if n.From != n.To {
			a.Members[n.From] = "participant"
		}
		ev = Event{Kind: EventHandover, Activity: a.clone(), Actor: n.To, Detail: "responsibility", At: n.Closed}
	case NegCompetence:
		a.Members[n.To] = "competent:" + n.Competence
		ev = Event{Kind: EventHandover, Activity: a.clone(), Actor: n.To, Detail: "competence:" + n.Competence, At: n.Closed}
	}
	a.Updated = n.Closed
	out := n.clone()
	r.mu.Unlock()

	r.notify(ev)
	return out, nil
}
