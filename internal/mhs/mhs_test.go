package mhs

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
)

// mhsFixture builds a three-domain MHS, mirroring the paper's authorship:
//
//	gmd.de  (mta-gmd)  — users prinz, klaus; DL "cscw-team"
//	upc.es  (mta-upc)  — user navarro
//	lancs.uk (mta-lancs) — user rodden
//
// Routes: gmd<->upc direct; lancs reachable from gmd only via upc
// (multi-hop), upc<->lancs direct.
type mhsFixture struct {
	clk   *vclock.Simulated
	net   *netsim.Network
	gmd   *MTA
	upc   *MTA
	lancs *MTA

	prinz   *UserAgent
	klaus   *UserAgent
	navarro *UserAgent
	rodden  *UserAgent
}

func newMHSFixture(t testing.TB, opts ...rpc.Option) *mhsFixture {
	t.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(9))

	mk := func(addr netsim.Address, name, domain string) *MTA {
		ep := rpc.NewEndpoint(net.MustAddNode(addr), clk, opts...)
		return NewMTA(name, domain, ep, clk)
	}
	f := &mhsFixture{clk: clk, net: net}
	f.gmd = mk("mta-gmd", "mta-gmd", "gmd.de")
	f.upc = mk("mta-upc", "mta-upc", "upc.es")
	f.lancs = mk("mta-lancs", "mta-lancs", "lancs.uk")

	f.gmd.AddRoute("upc.es", "mta-upc")
	f.gmd.AddRoute("lancs.uk", "mta-upc") // multi-hop via UPC
	f.upc.AddRoute("gmd.de", "mta-gmd")
	f.upc.AddRoute("lancs.uk", "mta-lancs")
	f.lancs.AddRoute("upc.es", "mta-upc")
	f.lancs.AddRoute("gmd.de", "mta-upc")

	f.prinz = NewUserAgent(MustParseORName("pn=prinz;ou=cscw;o=gmd;c=de"), f.gmd)
	f.klaus = NewUserAgent(MustParseORName("pn=klaus;ou=cscw;o=gmd;c=de"), f.gmd)
	f.navarro = NewUserAgent(MustParseORName("pn=navarro;o=upc;c=es"), f.upc)
	f.rodden = NewUserAgent(MustParseORName("pn=rodden;o=lancs;c=uk"), f.lancs)
	return f
}

func TestORNameParse(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		domain  string
		wantErr bool
	}{
		{"pn=prinz;ou=cscw;o=gmd;c=de", "pn=prinz;ou=cscw;o=gmd;c=de", "gmd.de", false},
		{"o=gmd;pn=prinz", "pn=prinz;o=gmd", "gmd", false},
		{"PN=Prinz;O=GMD", "pn=prinz;o=gmd", "gmd", false},
		{"", "", "", true},
		{"pn=prinz", "", "", true},      // missing org
		{"o=gmd", "", "", true},         // missing pn
		{"pn=x;zz=y;o=g", "", "", true}, // unknown attribute
	}
	for _, tt := range tests {
		n, err := ParseORName(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseORName(%q) = %v, want error", tt.in, n)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseORName(%q): %v", tt.in, err)
			continue
		}
		if n.String() != tt.want || n.Domain() != tt.domain {
			t.Errorf("ParseORName(%q) = %q/%q, want %q/%q", tt.in, n.String(), n.Domain(), tt.want, tt.domain)
		}
	}
}

func TestLocalDelivery(t *testing.T) {
	f := newMHSFixture(t)
	msgID, err := f.prinz.Send([]ORName{f.klaus.Name}, "meeting", "10am room 5")
	if err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	msgs, err := f.klaus.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("klaus has %d messages, want 1", len(msgs))
	}
	if msgs[0].Envelope.MessageID != msgID || msgs[0].Envelope.Content.Subject != "meeting" {
		t.Fatalf("stored message = %+v", msgs[0].Envelope)
	}
	if f.klaus.Unread() != 1 {
		t.Fatalf("Unread = %d", f.klaus.Unread())
	}
}

func TestRemoteDeliverySingleHop(t *testing.T) {
	f := newMHSFixture(t)
	if _, err := f.prinz.Send([]ORName{f.navarro.Name}, "odp workshop", "berlin, october"); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	msgs, err := f.navarro.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("navarro has %d messages", len(msgs))
	}
	trace := msgs[0].Envelope.Trace
	if len(trace) != 2 || trace[0].MTA != "mta-gmd" || trace[1].MTA != "mta-upc" {
		t.Fatalf("trace = %+v", trace)
	}
}

func TestRemoteDeliveryMultiHop(t *testing.T) {
	f := newMHSFixture(t)
	if _, err := f.prinz.Send([]ORName{f.rodden.Name}, "paper draft", "section 6 attached"); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	msgs, err := f.rodden.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("rodden has %d messages", len(msgs))
	}
	trace := msgs[0].Envelope.Trace
	if len(trace) != 3 {
		t.Fatalf("trace length = %d, want 3 hops (gmd->upc->lancs): %+v", len(trace), trace)
	}
}

func TestMultiRecipientSplitsByDomain(t *testing.T) {
	f := newMHSFixture(t)
	to := []ORName{f.klaus.Name, f.navarro.Name, f.rodden.Name}
	if _, err := f.prinz.Send(to, "all hands", "project review friday"); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	for _, ua := range []*UserAgent{f.klaus, f.navarro, f.rodden} {
		msgs, err := ua.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 1 {
			t.Fatalf("%s has %d messages, want 1", ua.Name, len(msgs))
		}
	}
}

func TestNonDeliveryReportUnknownRecipient(t *testing.T) {
	f := newMHSFixture(t)
	ghost := MustParseORName("pn=ghost;o=upc;c=es")
	if _, err := f.prinz.Send([]ORName{ghost}, "hello?", "anyone there"); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	msgs, err := f.prinz.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || !msgs[0].IsReport() {
		t.Fatalf("prinz store = %+v, want one NDR", msgs)
	}
	rep := msgs[0].Report
	if rep.Kind != ReportNonDelivery || !strings.Contains(rep.Reason, "unknown recipient") {
		t.Fatalf("report = %+v", rep)
	}
	if !rep.Recipient.Equal(ghost) {
		t.Fatalf("report recipient = %v", rep.Recipient)
	}
}

func TestNoRouteNDR(t *testing.T) {
	f := newMHSFixture(t)
	mars := MustParseORName("pn=marvin;o=mars")
	if _, err := f.prinz.Send([]ORName{mars}, "ping", ""); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	msgs, _ := f.prinz.List()
	if len(msgs) != 1 || !msgs[0].IsReport() || msgs[0].Report.Kind != ReportNonDelivery {
		t.Fatalf("want NDR for unroutable domain, got %+v", msgs)
	}
	if !strings.Contains(msgs[0].Report.Reason, "no route") {
		t.Fatalf("reason = %q", msgs[0].Report.Reason)
	}
}

func TestDeliveryReportRequested(t *testing.T) {
	f := newMHSFixture(t)
	if _, err := f.prinz.Send([]ORName{f.navarro.Name}, "with DR", "", WithDeliveryReport()); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	msgs, _ := f.prinz.List()
	if len(msgs) != 1 || !msgs[0].IsReport() {
		t.Fatalf("want DR in prinz store, got %+v", msgs)
	}
	if msgs[0].Report.Kind != ReportDelivered {
		t.Fatalf("kind = %v", msgs[0].Report.Kind)
	}
}

func TestDeferredDelivery(t *testing.T) {
	f := newMHSFixture(t)
	deliverAt := f.clk.Now().Add(time.Hour)
	if _, err := f.prinz.Send([]ORName{f.klaus.Name}, "reminder", "submit review",
		WithDeferredUntil(deliverAt)); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(59 * time.Minute)
	if msgs, _ := f.klaus.List(); len(msgs) != 0 {
		t.Fatal("deferred message delivered early")
	}
	f.clk.Advance(2 * time.Minute)
	if msgs, _ := f.klaus.List(); len(msgs) != 1 {
		t.Fatal("deferred message not delivered at deadline")
	}
}

func TestPriorityOrdering(t *testing.T) {
	f := newMHSFixture(t)
	if _, err := f.prinz.Send([]ORName{f.klaus.Name}, "slow", "", WithPriority(PriorityNonUrgent)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.prinz.Send([]ORName{f.klaus.Name}, "normal", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := f.prinz.Send([]ORName{f.klaus.Name}, "urgent", "", WithPriority(PriorityUrgent)); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	msgs, _ := f.klaus.List()
	if len(msgs) != 3 {
		t.Fatalf("klaus has %d", len(msgs))
	}
	got := []string{msgs[0].Envelope.Content.Subject, msgs[1].Envelope.Content.Subject, msgs[2].Envelope.Content.Subject}
	if got[0] != "urgent" || got[1] != "normal" || got[2] != "slow" {
		t.Fatalf("order = %v", got)
	}
}

func TestDLExpansion(t *testing.T) {
	f := newMHSFixture(t)
	if err := f.gmd.CreateDL("cscw-team", f.prinz.Name, f.klaus.Name, f.rodden.Name); err != nil {
		t.Fatal(err)
	}
	dl := MustParseORName("pn=cscw-team;o=gmd;c=de")
	if _, err := f.navarro.Send([]ORName{dl}, "team update", "models chapter done"); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	for _, ua := range []*UserAgent{f.prinz, f.klaus, f.rodden} {
		msgs, _ := ua.List()
		if len(msgs) != 1 {
			t.Fatalf("%s got %d messages from DL, want 1", ua.Name, len(msgs))
		}
	}
	if st := f.gmd.Stats(); st.DLExpansions != 1 {
		t.Fatalf("DLExpansions = %d", st.DLExpansions)
	}
}

func TestNestedDLAndLoopProtection(t *testing.T) {
	f := newMHSFixture(t)
	// dl-a includes dl-b and prinz; dl-b includes dl-a and klaus: mutual
	// inclusion must terminate with each person receiving exactly once.
	dlA := MustParseORName("pn=dl-a;o=gmd;c=de")
	dlB := MustParseORName("pn=dl-b;o=gmd;c=de")
	if err := f.gmd.CreateDL("dl-a", dlB, f.prinz.Name); err != nil {
		t.Fatal(err)
	}
	if err := f.gmd.CreateDL("dl-b", dlA, f.klaus.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := f.navarro.Send([]ORName{dlA}, "loop test", ""); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	for _, ua := range []*UserAgent{f.prinz, f.klaus} {
		msgs, _ := ua.List()
		if len(msgs) != 1 {
			t.Fatalf("%s received %d copies, want exactly 1", ua.Name, len(msgs))
		}
	}
}

func TestDuplicateDLRejected(t *testing.T) {
	f := newMHSFixture(t)
	if err := f.gmd.CreateDL("x"); err != nil {
		t.Fatal(err)
	}
	if err := f.gmd.CreateDL("x"); !errors.Is(err, ErrDLExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestRetryAfterPartitionHeals(t *testing.T) {
	f := newMHSFixture(t)
	f.net.Partition([]netsim.Address{"mta-gmd"}, []netsim.Address{"mta-upc", "mta-lancs"})
	if _, err := f.prinz.Send([]ORName{f.navarro.Name}, "during partition", ""); err != nil {
		t.Fatal(err)
	}
	// First attempt times out (5s), first retry at +2s also fails, heal
	// before the second retry (+10s) fires.
	f.clk.Advance(8 * time.Second)
	f.net.Heal()
	f.clk.RunUntilIdle()
	msgs, _ := f.navarro.List()
	if len(msgs) != 1 {
		t.Fatalf("message not delivered after heal: %d", len(msgs))
	}
	if st := f.gmd.Stats(); st.Retries == 0 {
		t.Fatal("no retries recorded")
	}
}

func TestRetriesExhaustedNDR(t *testing.T) {
	f := newMHSFixture(t)
	f.net.Partition([]netsim.Address{"mta-gmd"}, []netsim.Address{"mta-upc", "mta-lancs"})
	if _, err := f.prinz.Send([]ORName{f.navarro.Name}, "never arrives", ""); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle() // all retries burn down while partitioned
	msgs, _ := f.prinz.List()
	if len(msgs) != 1 || !msgs[0].IsReport() || msgs[0].Report.Kind != ReportNonDelivery {
		t.Fatalf("want NDR after exhausted retries, got %+v", msgs)
	}
	if !strings.Contains(msgs[0].Report.Reason, "failed after") {
		t.Fatalf("reason = %q", msgs[0].Report.Reason)
	}
}

func TestRemoteNDRTravelsBack(t *testing.T) {
	f := newMHSFixture(t)
	ghost := MustParseORName("pn=ghost;o=lancs;c=uk")
	if _, err := f.prinz.Send([]ORName{ghost}, "to nobody", ""); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	// NDR generated at lancs travels lancs->upc->gmd and unwraps into a
	// Report in prinz's store.
	msgs, _ := f.prinz.List()
	if len(msgs) != 1 || !msgs[0].IsReport() {
		t.Fatalf("prinz store = %+v", msgs)
	}
	if msgs[0].Report.Kind != ReportNonDelivery || !msgs[0].Report.Recipient.Equal(ghost) {
		t.Fatalf("report = %+v", msgs[0].Report)
	}
}

func TestWatcherFires(t *testing.T) {
	f := newMHSFixture(t)
	var seen []string
	f.gmd.Watch(func(rcpt ORName, msg *StoredMessage) {
		seen = append(seen, rcpt.Personal+":"+msg.Envelope.Content.Subject)
	})
	if _, err := f.prinz.Send([]ORName{f.klaus.Name}, "live", ""); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	if len(seen) != 1 || seen[0] != "klaus:live" {
		t.Fatalf("watcher saw %v", seen)
	}
}

func TestStatsAccounting(t *testing.T) {
	f := newMHSFixture(t)
	if _, err := f.prinz.Send([]ORName{f.klaus.Name, f.navarro.Name}, "s", ""); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	gmd := f.gmd.Stats()
	if gmd.Submitted != 1 || gmd.DeliveredHere != 1 || gmd.Relayed != 1 {
		t.Fatalf("gmd stats = %+v", gmd)
	}
	upc := f.upc.Stats()
	if upc.DeliveredHere != 1 {
		t.Fatalf("upc stats = %+v", upc)
	}
}
