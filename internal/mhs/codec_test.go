package mhs

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mocca/internal/netsim"
	"mocca/internal/wire"
	"mocca/internal/wire/wiretest"
)

// harnessEnvelope is the envelope the workload harness's mail op relays: one
// recipient in another domain, stamped by the submitting MTA.
func harnessEnvelope() Envelope {
	return Envelope{
		MessageID:  "msg-000123",
		Originator: ORName{Country: "example", Org: "s003", Personal: "u00012"},
		Recipients: []ORName{{Country: "example", Org: "s007", Personal: "u00340"}},
		Priority:   PriorityNormal,
		Submitted:  netsim.DefaultEpoch.Add(90 * time.Second),
		Content:    Content{Subject: "update 5120", Body: "status report"},
		Trace:      []TraceEntry{{MTA: "mta-s003", At: netsim.DefaultEpoch.Add(90 * time.Second)}},
	}
}

// bodyCases covers the transfer envelope as the harness sends it and at the
// corners of its shape.
func bodyCases() []wiretest.Case {
	rng := rand.New(rand.NewSource(9))
	wrap := map[string]string{"report-kind": "non-delivery", "report-msgid": "msg-000123", "report-rcpt": "pn=jürgen;o=köln",
		"report-reason": "unknown recipient \"jürgen\" in domain \"köln\"", "report-is-wrap": "true", "": ""}
	report := Envelope{MessageID: "rpt-000007", Originator: ORName{Org: "köln", Personal: "mta-mta-köln"},
		Recipients: []ORName{{Country: "de", Org: "gmd", OrgUnit: "cscw", Personal: "prinz"}},
		Priority:   PriorityNormal, Content: Content{Subject: "non-delivery: msg-000123", Headers: wrap}}
	reinserted := report
	reinserted.Content.Headers = wiretest.Reinserted(rng, wrap)
	many := harnessEnvelope()
	many.Recipients = []ORName{{Org: "a", Personal: "x"}, {Country: "uk", Org: "lancs", Personal: "rodden"}, {Org: "日本", OrgUnit: "ünï", Personal: "ō"}}
	many.Priority, many.RequestDR = PriorityUrgent, true
	many.Deferred = time.Unix(708080400, 123456789).UTC()
	many.Content.InReplyTo = "msg-000100"
	many.Trace = append(many.Trace, TraceEntry{MTA: "mta-upc", At: time.Unix(-86400, 1).UTC()}, TraceEntry{})
	many.DLHistory = []string{"pn=cscw-team;o=gmd;c=de", ""}
	empties := harnessEnvelope()
	empties.Content.Headers, empties.DLHistory = map[string]string{}, []string{}
	return []wiretest.Case{
		wiretest.Of("envelope/harness", harnessEnvelope(), empties),
		wiretest.Of("envelope/wrapped report", report, reinserted),
		wiretest.Of("envelope/every field", many),
		wiretest.Of("envelope/no recipients", Envelope{MessageID: "m", Priority: -1}, Envelope{MessageID: "m", Priority: -1, Recipients: []ORName{}, Trace: []TraceEntry{}}),
		wiretest.Of("envelope/zero", Envelope{}),
	}
}

func TestBodiesRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, bodyCases())
}

func TestBodiesGolden(t *testing.T) {
	wiretest.Golden(t, bodyCases(), map[string]string{
		"envelope/harness": "b2000a6d73672d303030313233076578616d706c650473303033000675303030313201076578616d706c650473303037" +
			"000675303033343002d4cda3a30500ffdb8ff9ce03000b75706461746520353132300d737461747573207265706f7274" +
			"000001086d74612d73303033d4cda3a3050000",
	})
}

func TestBodiesRejectDamage(t *testing.T) {
	// tag, flags, an empty message id and originator; then no recipients, a
	// priority, two instants on the epoch and three empty content strings;
	// then no headers; then no trace.
	toRecipients := append([]byte{tagEnvelope, 0}, make([]byte, 5)...)
	toHeaders := append(bytes.Clone(toRecipients), make([]byte, 1+1+2*2+3)...)
	toTrace := append(bytes.Clone(toHeaders), 0)
	toHistory := append(bytes.Clone(toTrace), 0)
	wiretest.RejectDamage(t, bodyCases(), map[string][]byte{
		"recipients": toRecipients,
		"headers":    toHeaders,
		"trace":      toTrace,
		"dl history": toHistory,
	})
	// The prefixes above are what they claim: with a zero count in place of the
	// aimed one, and the sections behind it empty, each is a whole envelope.
	whole := append(bytes.Clone(toHistory), 0)
	if err := new(Envelope).UnmarshalBinary(whole); err != nil {
		t.Fatalf("the aimed bodies' prefix is not an envelope's: %v", err)
	}
}

// TestRetiredBodiesRefused: an envelope as the code before varints wrote it
// fails on its first byte.
func TestRetiredBodiesRefused(t *testing.T) {
	wiretest.RetiredRefused(t, "testdata/retired-bodies.txt", bodyCases())
}

// TestProbe: probes are retired. Bit 0 of an envelope's flags was the probe
// flag, so an envelope that still sets it — alone or beside the delivery
// report's bit — is refused like any unknown flag.
func TestProbe(t *testing.T) {
	for _, flags := range []byte{1, 1 | flagRequestDR} {
		b, err := harnessEnvelope().AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		b[1] = flags
		if err := new(Envelope).UnmarshalBinary(b); !errors.Is(err, wire.ErrBadBody) {
			t.Fatalf("an envelope with flags %#x decodes: %v", flags, err)
		}
	}
}

// transferRound sends one message from gmd.de to lancs.uk — two hops, through
// upc.es — and one to an unknown recipient there, whose wrapped report
// travels the two hops back. It returns the fixture and the bodies put on
// the wire by rpc method.
func transferRound(tb testing.TB) (*mhsFixture, map[string][][]byte) {
	tb.Helper()
	bodies := map[string][][]byte{}
	f := newMHSFixture(tb, wiretest.Tap(bodies))
	if _, err := f.prinz.Send([]ORName{f.rodden.Name}, "workshop", "see you in lancaster"); err != nil {
		tb.Fatal(err)
	}
	if _, err := f.prinz.Send([]ORName{MustParseORName("pn=nobody;o=lancs;c=uk")}, "hello?", ""); err != nil {
		tb.Fatal(err)
	}
	f.clk.RunUntilIdle()
	return f, bodies
}

// TestTransferBodiesAreBinary: on a real two-hop transfer and a report's
// way back every non-empty body is a binary one; the acknowledgements are
// empty.
func TestTransferBodiesAreBinary(t *testing.T) {
	f, bodies := transferRound(t)
	if got, _ := f.rodden.List(); len(got) != 1 {
		t.Fatalf("rodden holds %d messages, want the one sent", len(got))
	}
	if got, _ := f.prinz.List(); len(got) != 1 || !got[0].IsReport() || got[0].Report.Kind != ReportNonDelivery {
		t.Fatalf("prinz holds %v, want the non-delivery report", got)
	}
	envelopes := 0
	for _, b := range bodies[MethodTransfer] {
		if len(b) == 0 {
			continue
		}
		envelopes++
		if b[0] < 0x80 {
			t.Fatalf("%s body opens with %#x: %q", MethodTransfer, b[0], b)
		}
	}
	if envelopes != 6 || len(bodies[MethodTransfer]) != 12 || len(bodies) != 1 {
		t.Fatalf("%d envelopes in %d %s bodies over methods %v; want two messages and a report, two hops each, every one acknowledged",
			envelopes, len(bodies[MethodTransfer]), MethodTransfer, reflect.ValueOf(bodies).MapKeys())
	}
}

// TestDeferredZeroStaysZero: Deferred is read with IsZero at every MTA, and
// an instant's wire form must keep the zero one zero across a relay — an
// envelope nobody deferred is processed on arrival, and is stored as it was
// sent. One that was deferred keeps its instant to the nanosecond.
func TestDeferredZeroStaysZero(t *testing.T) {
	f := newMHSFixture(t)
	if _, err := f.prinz.Send([]ORName{f.rodden.Name}, "now", ""); err != nil {
		t.Fatal(err)
	}
	until := netsim.DefaultEpoch.Add(time.Hour + 7*time.Nanosecond)
	if _, err := f.prinz.Send([]ORName{f.rodden.Name}, "later", "", WithDeferredUntil(until)); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(time.Minute)
	got, err := f.rodden.List()
	if err != nil || len(got) != 1 {
		t.Fatalf("after a minute rodden holds %d messages (%v), want the undeferred one", len(got), err)
	}
	env := got[0].Envelope
	if !env.Deferred.IsZero() || env.Deferred != (time.Time{}) {
		t.Fatalf("Deferred arrived as %v, want the zero time", env.Deferred)
	}
	if want := netsim.DefaultEpoch; !env.Submitted.Equal(want) || len(env.Trace) != 3 || !env.Trace[0].At.Equal(want) {
		t.Fatalf("Submitted %v, trace %v; want submission at %v and three hops", env.Submitted, env.Trace, want)
	}
	f.clk.RunUntilIdle()
	if got, _ = f.rodden.List(); len(got) != 2 || !got[1].Envelope.Deferred.Equal(until) {
		t.Fatalf("the deferred message: %d held, Deferred %v, want %v", len(got), got[len(got)-1].Envelope.Deferred, until)
	}
	if at := got[1].DeliveredAt; at.Before(until) {
		t.Fatalf("the deferred message was delivered at %v, before %v", at, until)
	}
}

// FuzzMHSBodies: whatever bytes arrive, the decoder either refuses them or
// yields an envelope that encodes and decodes back to itself. The seeds
// include the envelopes an older peer sent.
func FuzzMHSBodies(f *testing.F) {
	_, bodies := transferRound(f)
	for _, b := range bodies[MethodTransfer] {
		if len(b) > 0 {
			f.Add(b)
		}
	}
	for _, c := range bodyCases() {
		f.Add(c.Encode(f))
	}
	for _, b := range wiretest.Retired(f, "testdata/retired-bodies.txt") {
		f.Add(b)
	}
	wiretest.Fuzz(f, []wiretest.Case{wiretest.Of("envelope", Envelope{})})
}

// TestEnvelopeDecodeAllocations: decoding the harness's envelope costs its
// strings and its two one-element slices — no map, no scratch, no error.
func TestEnvelopeDecodeAllocations(t *testing.T) {
	body, _ := harnessEnvelope().AppendBinary(nil)
	var env Envelope
	if got := testing.AllocsPerRun(200, func() {
		if err := env.UnmarshalBinary(body); err != nil {
			t.Fatal(err)
		}
	}); got > 12 {
		t.Fatalf("decoding an envelope allocates %v times, want at most its ten strings and two slices", got)
	}
	if !reflect.DeepEqual(env, harnessEnvelope()) {
		t.Fatalf("decoded %+v", env)
	}
}

var benchSink int

// BenchmarkEnvelopeCodec prices one transfer's body through the one body
// entry point, each way.
func BenchmarkEnvelopeCodec(b *testing.B) {
	env := harnessEnvelope()
	body, err := wire.EncodeBody(env)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, _ := wire.EncodeBody(&env)
			benchSink += len(out)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out Envelope
			if err := wire.DecodeBody(body, &out); err != nil {
				b.Fatal(err)
			}
			benchSink += len(out.Trace)
		}
	})
}
