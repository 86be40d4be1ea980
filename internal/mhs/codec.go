package mhs

import (
	"slices"

	"mocca/internal/wire"
)

// mhs.transfer carries the transfer envelope as a hand-written binary body
// (see internal/replica/codec.go for the shape: a tag byte with the high
// bit set, then wire's primitives, the content headers in sorted key
// order). Instants travel as wire.AppendTime writes them, so an envelope
// that is not deferred — Deferred the zero time.Time — reads IsZero at every
// hop. The acknowledgement is an empty body. Range 0xB1.
const tagEnvelope byte = 0xB1

// Flags of an envelope.
const (
	flagProbe byte = 1 << iota
	flagRequestDR
)

func appendORName(b []byte, n ORName) []byte {
	b = wire.AppendString(b, n.Country)
	b = wire.AppendString(b, n.Org)
	b = wire.AppendString(b, n.OrgUnit)
	return wire.AppendString(b, n.Personal)
}

func consumeORName(b *wire.Body) ORName {
	return ORName{Country: b.String(), Org: b.String(), OrgUnit: b.String(), Personal: b.String()}
}

// AppendBinary implements encoding.BinaryAppender.
func (e Envelope) AppendBinary(b []byte) ([]byte, error) {
	var flags byte
	if e.Probe {
		flags |= flagProbe
	}
	if e.RequestDR {
		flags |= flagRequestDR
	}
	b = append(b, tagEnvelope, flags)
	b = wire.AppendString(b, e.MessageID)
	b = appendORName(b, e.Originator)
	b = wire.AppendUint64(b, uint64(len(e.Recipients)))
	for _, rcpt := range e.Recipients {
		b = appendORName(b, rcpt)
	}
	b = wire.AppendUint64(b, uint64(e.Priority))
	b = wire.AppendTime(b, e.Submitted)
	b = wire.AppendTime(b, e.Deferred)
	b = wire.AppendString(b, e.Content.Subject)
	b = wire.AppendString(b, e.Content.Body)
	b = wire.AppendString(b, e.Content.InReplyTo)
	b = wire.AppendUint64(b, uint64(len(e.Content.Headers)))
	var room [8]string // a wrapped report's five headers sort on the stack
	keys := room[:0]
	for k := range e.Content.Headers {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = wire.AppendString(b, k)
		b = wire.AppendString(b, e.Content.Headers[k])
	}
	b = wire.AppendUint64(b, uint64(len(e.Trace)))
	for _, hop := range e.Trace {
		b = wire.AppendString(b, hop.MTA)
		b = wire.AppendTime(b, hop.At)
	}
	b = wire.AppendUint64(b, uint64(len(e.DLHistory)))
	for _, dl := range e.DLHistory {
		b = wire.AppendString(b, dl)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Empty recipients,
// headers, trace and list history read as nil.
func (e *Envelope) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagEnvelope, "mhs envelope")
	flags := b.Flags(flagProbe | flagRequestDR)
	*e = Envelope{Probe: flags&flagProbe != 0, RequestDR: flags&flagRequestDR != 0,
		MessageID: b.String(), Originator: consumeORName(&b)}
	if n := b.Count(4 * 4); n > 0 {
		e.Recipients = make([]ORName, n)
		for i := range e.Recipients {
			e.Recipients[i] = consumeORName(&b)
		}
	}
	e.Priority, e.Submitted, e.Deferred = Priority(b.Int()), b.Time(), b.Time()
	e.Content = Content{Subject: b.String(), Body: b.String(), InReplyTo: b.String()}
	if n := b.Count(2 * 4); n > 0 {
		e.Content.Headers = make(map[string]string, n)
		for range n {
			k := b.String()
			e.Content.Headers[k] = b.String()
		}
	}
	if n := b.Count(4 + 12); n > 0 {
		e.Trace = make([]TraceEntry, n)
		for i := range e.Trace {
			e.Trace[i] = TraceEntry{MTA: b.String(), At: b.Time()}
		}
	}
	if n := b.Count(4); n > 0 {
		e.DLHistory = make([]string, n)
		for i := range e.DLHistory {
			e.DLHistory[i] = b.String()
		}
	}
	return b.Close()
}
