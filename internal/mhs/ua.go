package mhs

import (
	"slices"
	"time"
)

// UserAgent is the submission/retrieval interface a person or application
// uses, attached to its home MTA (local P3/P7 access).
type UserAgent struct {
	Name ORName
	mta  *MTA
}

// NewUserAgent attaches a user agent to its home MTA and provisions the
// mailbox.
func NewUserAgent(name ORName, mta *MTA) *UserAgent {
	mta.CreateMailbox(name.Personal)
	return &UserAgent{Name: name, mta: mta}
}

// SubmitOption adjusts one submission.
type SubmitOption func(*Envelope)

// WithPriority sets the grade of delivery.
func WithPriority(p Priority) SubmitOption {
	return func(e *Envelope) { e.Priority = p }
}

// WithDeferredUntil holds the message at the submission MTA until t.
func WithDeferredUntil(t time.Time) SubmitOption {
	return func(e *Envelope) { e.Deferred = t }
}

// WithDeliveryReport requests a positive delivery report.
func WithDeliveryReport() SubmitOption {
	return func(e *Envelope) { e.RequestDR = true }
}

// WithHeader attaches an application header to the content.
func WithHeader(k, v string) SubmitOption {
	return func(e *Envelope) {
		if e.Content.Headers == nil {
			e.Content.Headers = make(map[string]string)
		}
		e.Content.Headers[k] = v
	}
}

// WithInReplyTo threads the message under a previous message id.
func WithInReplyTo(msgID string) SubmitOption {
	return func(e *Envelope) { e.Content.InReplyTo = msgID }
}

// Send submits an interpersonal message and returns the message id. The
// envelope is built here and handed to the MTA whole; of the caller's
// arguments only the recipient slice needs a copy.
func (ua *UserAgent) Send(to []ORName, subject, body string, opts ...SubmitOption) (string, error) {
	env := &Envelope{
		Originator: ua.Name,
		Recipients: slices.Clone(to),
		Content:    Content{Subject: subject, Body: body},
	}
	for _, opt := range opts {
		opt(env)
	}
	return ua.mta.Submit(env)
}

// List returns the mailbox contents.
func (ua *UserAgent) List() ([]*StoredMessage, error) {
	return ua.mta.List(ua.Name.Personal)
}

// Unread counts the messages, not reports, in the mailbox.
func (ua *UserAgent) Unread() int {
	return ua.mta.Unread(ua.Name.Personal)
}
