// Package comm implements the paper's Communication Model: "the
// communication model aims to represents communication in terms of the
// communicators, the information objects they exchange, and the context
// within which communication takes place."
//
// One Hub routes every message with temporal transparency: the recipient
// is reached store-and-forward through the MHS, the message's context in
// its headers, provided the sender selected time transparency.
// BridgeConference carries a synchronous conference to its absent members
// the same way.
package comm

import (
	"errors"
	"fmt"
	"sync"

	"mocca/internal/mhs"
	"mocca/internal/transparency"
)

// Message is the unit communicators exchange.
type Message struct {
	From    string
	To      string
	Subject string
	Body    string
	// InfoObject optionally references a shared information object id —
	// the "information objects they exchange" of the model.
	InfoObject string
	// Context names the setting of the exchange (activity id, conference
	// id, or free-form) — the "context within which communication takes
	// place".
	Context string
}

// ErrUnknownUser reports a communicator the hub has not registered.
var ErrUnknownUser = errors.New("comm: unknown communicator")

// Hub is the communication model service.
type Hub struct {
	selector *transparency.Selector

	mu sync.Mutex
	// users maps each communicator to the MHS user agent that holds its
	// mailbox; a sender-only communicator maps to nil.
	users map[string]*mhs.UserAgent
}

// NewHub creates a hub using the given transparency selector.
func NewHub(selector *transparency.Selector) *Hub {
	return &Hub{selector: selector, users: make(map[string]*mhs.UserAgent)}
}

// Register adds a communicator with their MHS user agent (which provides
// the asynchronous path).
func (h *Hub) Register(name string, ua *mhs.UserAgent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.users[name] = ua
}

// RegisterSystem adds a sender-only communicator with no mailbox (bridges,
// gateways, devices). Async delivery TO it fails; sending FROM it works.
func (h *Hub) RegisterSystem(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.users[name]; !ok {
		h.users[name] = nil
	}
}

// Send routes the message with temporal transparency: the recipient is
// reached store-and-forward via their MHS user agent — provided the
// sender selected time transparency.
func (h *Hub) Send(msg Message) (transparency.Mode, error) {
	h.mu.Lock()
	_, ok := h.users[msg.From]
	if !ok {
		h.mu.Unlock()
		return "", fmt.Errorf("%w: sender %q", ErrUnknownUser, msg.From)
	}
	ua, ok := h.users[msg.To]
	h.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("%w: recipient %q", ErrUnknownUser, msg.To)
	}

	router := &transparency.TimeRouter{
		Selector: h.selector,
		Async: func(user string, payload any) error {
			m := payload.(Message)
			if ua == nil {
				return fmt.Errorf("comm: %q has no store-and-forward mailbox", user)
			}
			// Submit into the recipient's home MTA addressed to their own
			// O/R name: local delivery into their message store.
			_, err := ua.Send([]mhs.ORName{ua.Name}, m.Subject, m.Body,
				mhs.WithHeader("comm-from", m.From),
				mhs.WithHeader("comm-context", m.Context),
				mhs.WithHeader("comm-info-object", m.InfoObject),
			)
			return err
		},
	}
	return router.Route(msg.From, msg.To, msg)
}
