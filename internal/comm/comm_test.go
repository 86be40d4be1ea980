package comm

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mocca/internal/mhs"
	"mocca/internal/netsim"
	"mocca/internal/odp"
	"mocca/internal/rpc"
	"mocca/internal/rtc"
	"mocca/internal/transparency"
	"mocca/internal/vclock"
)

type hubFixture struct {
	clk   *vclock.Simulated
	net   *netsim.Network
	hub   *Hub
	sel   *transparency.Selector
	prinz *mhs.UserAgent
	klaus *mhs.UserAgent
}

func newHubFixture(t *testing.T) *hubFixture {
	t.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(31))
	mtaEP := rpc.NewEndpoint(net.MustAddNode("mta"), clk)
	mta := mhs.NewMTA("mta-gmd", "gmd.de", mtaEP, clk)
	prinz := mhs.NewUserAgent(mhs.MustParseORName("pn=prinz;o=gmd;c=de"), mta)
	klaus := mhs.NewUserAgent(mhs.MustParseORName("pn=klaus;o=gmd;c=de"), mta)

	sel := transparency.NewSelector()
	hub := NewHub(sel)
	hub.Register("prinz", prinz)
	hub.Register("klaus", klaus)
	return &hubFixture{clk: clk, net: net, hub: hub, sel: sel, prinz: prinz, klaus: klaus}
}

func TestSendAsyncWhenOffline(t *testing.T) {
	f := newHubFixture(t)
	mode, err := f.hub.Send(Message{From: "prinz", To: "klaus", Subject: "later", Body: "fyi", Context: "act-1"})
	if err != nil || mode != transparency.ModeAsync {
		t.Fatalf("mode=%v err=%v", mode, err)
	}
	f.clk.RunUntilIdle()
	msgs, err := f.klaus.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].Envelope.Content.Subject != "later" {
		t.Fatalf("mailbox = %v", msgs)
	}
	if got := msgs[0].Envelope.Content.Headers["comm-from"]; got != "prinz" {
		t.Fatalf("comm-from = %q", got)
	}
}

func TestOfflineWithoutTimeTransparencyFails(t *testing.T) {
	f := newHubFixture(t)
	f.sel.Disable("prinz", odp.Time)
	_, err := f.hub.Send(Message{From: "prinz", To: "klaus", Subject: "x"})
	if !errors.Is(err, transparency.ErrRecipientOffline) {
		t.Fatalf("err = %v", err)
	}
	f.clk.RunUntilIdle()
	if f.klaus.Unread() != 0 {
		t.Fatal("a refused message reached the mailbox")
	}
}

func TestUnknownUsers(t *testing.T) {
	f := newHubFixture(t)
	if _, err := f.hub.Send(Message{From: "ghost", To: "klaus"}); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("ghost sender: %v", err)
	}
	if _, err := f.hub.Send(Message{From: "prinz", To: "ghost"}); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("ghost recipient: %v", err)
	}
}

func TestConferenceBridge(t *testing.T) {
	f := newHubFixture(t)
	// Host a conference where only prinz participates; klaus is absent.
	mcuEP := rpc.NewEndpoint(f.net.MustAddNode("mcu"), f.clk)
	server := rtc.NewServer(mcuEP, f.clk)
	cid, err := server.CreateConference("design", rtc.ModeOpen)
	if err != nil {
		t.Fatal(err)
	}
	pEP := rpc.NewEndpoint(f.net.MustAddNode("prinz-node"), f.clk)
	sess := rtc.NewSession(pEP, f.clk, "mcu", cid, "prinz")

	drive := func(op func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- op() }()
		for {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				return
			default:
				time.Sleep(200 * time.Microsecond)
				f.clk.Advance(10 * time.Millisecond)
			}
		}
	}
	drive(sess.Join)
	drive(func() error { return sess.Set("decision", "adopt odp") })
	drive(sess.Leave)
	f.clk.RunUntilIdle()

	sent, err := BridgeConference(f.hub, server, cid, []string{"prinz", "klaus"}, "meeting:design")
	if err != nil {
		t.Fatal(err)
	}
	if sent != 1 {
		t.Fatalf("digests sent = %d, want 1 (only klaus was absent)", sent)
	}
	f.clk.RunUntilIdle()
	msgs, _ := f.klaus.List()
	if len(msgs) != 1 {
		t.Fatalf("klaus mailbox = %d", len(msgs))
	}
	body := msgs[0].Envelope.Content.Body
	if !strings.Contains(body, "prinz set decision = adopt odp") {
		t.Fatalf("digest body = %q", body)
	}
	// prinz, who attended, got nothing.
	if f.prinz.Unread() != 0 {
		t.Fatal("attendee received a digest")
	}
}

func TestRenderDigestEmpty(t *testing.T) {
	if got := RenderDigest(nil); got != "(no recorded activity)" {
		t.Fatalf("empty digest = %q", got)
	}
}
