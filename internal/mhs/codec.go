package mhs

import "mocca/internal/wire"

// mhs.transfer carries the transfer envelope as a hand-written binary body
// (see internal/replica/codec.go for the shape: a tag byte with the high
// bit set, then wire's primitives — strings behind a uvarint length, the
// priority and every count a uvarint, the content headers in sorted key
// order). Instants travel as wire.AppendTime writes them, so an envelope
// that is not deferred — Deferred the zero time.Time — reads IsZero at every
// hop. The acknowledgement is an empty body. Range 0xB1–0xB2: 0xB1, the
// envelope with four-byte string lengths, eight-byte counts and twelve-byte
// instants, is retired.
const tagEnvelope byte = 0xB2

// The one flag of an envelope. Bit 0 was the retired probe flag: a body
// that sets it is refused like any unknown flag.
const flagRequestDR byte = 1 << 1

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
	if e.RequestDR {
		flags = flagRequestDR
	}
	b = append(b, tagEnvelope, flags)
	b = wire.AppendString(b, e.MessageID)
	b = appendORName(b, e.Originator)
	b = wire.AppendList(b, e.Recipients, appendORName)
	b = wire.AppendUvarint(b, uint64(e.Priority))
	b = wire.AppendTime(b, e.Submitted)
	b = wire.AppendTime(b, e.Deferred)
	b = wire.AppendString(b, e.Content.Subject)
	b = wire.AppendString(b, e.Content.Body)
	b = wire.AppendString(b, e.Content.InReplyTo)
	b = wire.AppendStringMap(b, e.Content.Headers)
	b = wire.AppendList(b, e.Trace, appendHop)
	return wire.AppendStrings(b, e.DLHistory), nil
}

func appendHop(b []byte, hop TraceEntry) []byte {
	return wire.AppendTime(wire.AppendString(b, hop.MTA), hop.At)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Empty recipients,
// headers, trace and list history read as nil.
func (e *Envelope) UnmarshalBinary(data []byte) error {
	b := wire.OpenBody(data, tagEnvelope, "mhs envelope")
	*e = Envelope{RequestDR: b.Flags(flagRequestDR) != 0,
		MessageID: b.String(), Originator: consumeORName(&b)}
	if n := b.Count(4); n > 0 { // four lengths
		e.Recipients = make([]ORName, n)
		for i := range e.Recipients {
			e.Recipients[i] = consumeORName(&b)
		}
	}
	e.Priority, e.Submitted, e.Deferred = Priority(b.Int()), b.Time(), b.Time()
	e.Content = Content{Subject: b.String(), Body: b.String(), InReplyTo: b.String(), Headers: b.StringMap()}
	if n := b.Count(1 + 2); n > 0 { // a length, an instant's two varints
		e.Trace = make([]TraceEntry, n)
		for i := range e.Trace {
			e.Trace[i] = TraceEntry{MTA: b.String(), At: b.Time()}
		}
	}
	e.DLHistory = b.Strings()
	return b.Close()
}
