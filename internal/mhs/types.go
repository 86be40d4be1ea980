// Package mhs implements an X.400-style Message Handling System: user
// agents submit messages to their local Message Transfer Agent (MTA), MTAs
// relay store-and-forward across management domains, and recipients list
// their message stores.
//
// The paper (§4, "Support for Communication") observes that CSCW systems
// have traditionally been built on "asynchronous OSI communication
// standards such as X.400", which they "adopt and augment". This package is
// that substrate: envelopes with priorities and deferred delivery,
// distribution lists with loop-safe expansion, delivery and non-delivery
// reports, and per-hop trace information.
package mhs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// ORName is a (simplified) X.400 Originator/Recipient name with the
// attributes the repository needs: country, ADMD is elided, organisation,
// organisational unit, and personal name. String form:
//
//	pn=prinz;ou=cscw;o=gmd;c=de
type ORName struct {
	Country  string
	Org      string
	OrgUnit  string
	Personal string
}

// ErrBadORName reports an unparsable O/R name.
var ErrBadORName = errors.New("mhs: malformed O/R name")

// ParseORName parses the semicolon form. Unknown attributes error;
// attribute order is free.
func ParseORName(s string) (ORName, error) {
	var n ORName
	if strings.TrimSpace(s) == "" {
		return n, fmt.Errorf("%w: empty", ErrBadORName)
	}
	for _, part := range strings.Split(s, ";") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return n, fmt.Errorf("%w: component %q", ErrBadORName, part)
		}
		key := strings.ToLower(strings.TrimSpace(kv[0]))
		val := strings.ToLower(strings.TrimSpace(kv[1]))
		if val == "" {
			return n, fmt.Errorf("%w: empty value in %q", ErrBadORName, part)
		}
		switch key {
		case "pn":
			n.Personal = val
		case "ou":
			n.OrgUnit = val
		case "o":
			n.Org = val
		case "c":
			n.Country = val
		default:
			return n, fmt.Errorf("%w: unknown attribute %q", ErrBadORName, key)
		}
	}
	if n.Personal == "" || n.Org == "" {
		return n, fmt.Errorf("%w: pn and o are mandatory in %q", ErrBadORName, s)
	}
	return n, nil
}

// MustParseORName is ParseORName panicking on error.
func MustParseORName(s string) ORName {
	n, err := ParseORName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String renders the canonical semicolon form.
func (n ORName) String() string {
	parts := []string{"pn=" + n.Personal}
	if n.OrgUnit != "" {
		parts = append(parts, "ou="+n.OrgUnit)
	}
	parts = append(parts, "o="+n.Org)
	if n.Country != "" {
		parts = append(parts, "c="+n.Country)
	}
	return strings.Join(parts, ";")
}

// Domain identifies the management domain that routes this name: the
// organisation (plus country when present).
func (n ORName) Domain() string {
	if n.Country != "" {
		return n.Org + "." + n.Country
	}
	return n.Org
}

// inDomain reports whether the name's Domain is domain, without building
// it.
func (n ORName) inDomain(domain string) bool {
	if n.Country == "" {
		return n.Org == domain
	}
	return len(domain) == len(n.Org)+1+len(n.Country) && domain[len(n.Org)] == '.' &&
		strings.HasPrefix(domain, n.Org) && strings.HasSuffix(domain, n.Country)
}

// Equal compares O/R names.
func (n ORName) Equal(o ORName) bool { return n == o }

// Priority is the X.400 grade of delivery.
type Priority int

// Grades of delivery; urgent sorts before normal before non-urgent.
const (
	PriorityUrgent Priority = iota + 1
	PriorityNormal
	PriorityNonUrgent
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PriorityUrgent:
		return "urgent"
	case PriorityNormal:
		return "normal"
	case PriorityNonUrgent:
		return "non-urgent"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// TraceEntry records one MTA hop, for loop detection and diagnostics.
type TraceEntry struct {
	MTA string
	At  time.Time
}

// Content is the interpersonal message payload (a simplified P2).
type Content struct {
	Subject string
	Body    string
	Headers map[string]string
	// InReplyTo carries threading for message-based groupware.
	InReplyTo string
}

// Envelope is the transfer envelope (a simplified P1).
type Envelope struct {
	MessageID  string
	Originator ORName
	Recipients []ORName
	Priority   Priority
	Submitted  time.Time
	Deferred   time.Time
	RequestDR  bool
	Content    Content
	Trace      []TraceEntry
	// DLHistory lists distribution lists already expanded, breaking
	// mutual-inclusion loops.
	DLHistory []string
}

// visits counts how often the named MTA appears in the trace.
func (e *Envelope) visits(mta string) int {
	n := 0
	for _, t := range e.Trace {
		if t.MTA == mta {
			n++
		}
	}
	return n
}

// ReportKind discriminates delivery reports.
type ReportKind int

// Report kinds.
const (
	ReportDelivered ReportKind = iota + 1
	ReportNonDelivery
)

// String implements fmt.Stringer.
func (k ReportKind) String() string {
	switch k {
	case ReportDelivered:
		return "delivered"
	case ReportNonDelivery:
		return "non-delivery"
	default:
		return fmt.Sprintf("report(%d)", int(k))
	}
}

// Report is a delivery/non-delivery notification returned to an
// originator's message store.
type Report struct {
	Kind      ReportKind
	MessageID string
	Recipient ORName
	Reason    string
	At        time.Time
}

// StoredMessage is an entry in a recipient's message store. It is
// read-only: the MTA stores the envelope it processed, not a copy, so one
// Envelope is shared by every local recipient's entry, by the reports
// about it and by the relays that carry it on. List and Watch hand out the
// store's own entries; their readers edit neither the entry nor its
// envelope.
type StoredMessage struct {
	Envelope *Envelope
	Report   *Report
	// Seq orders the store; assigned at delivery.
	Seq uint64
	// DeliveredAt is the local delivery instant.
	DeliveredAt time.Time
}

// IsReport reports whether the entry is a report rather than a message.
func (m *StoredMessage) IsReport() bool { return m.Report != nil }

// sortStored orders by (priority, seq) so urgent messages list first.
func sortStored(msgs []*StoredMessage) {
	sort.SliceStable(msgs, func(i, j int) bool {
		pi, pj := PriorityNormal, PriorityNormal
		if msgs[i].Envelope != nil && msgs[i].Envelope.Priority != 0 {
			pi = msgs[i].Envelope.Priority
		}
		if msgs[j].Envelope != nil && msgs[j].Envelope.Priority != 0 {
			pj = msgs[j].Envelope.Priority
		}
		if pi != pj {
			return pi < pj
		}
		return msgs[i].Seq < msgs[j].Seq
	})
}
