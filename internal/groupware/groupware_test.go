package groupware

import (
	"strings"
	"testing"
	"time"

	"mocca/internal/core"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/rtc"
	"mocca/internal/vclock"
)

type gwFixture struct {
	clk    *vclock.Simulated
	net    *netsim.Network
	env    *core.Environment
	server *rtc.Server
}

func newGWFixture(t *testing.T) *gwFixture {
	t.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(41))
	env := core.New(clk)
	mcuEP := rpc.NewEndpoint(net.MustAddNode("mcu"), clk)
	server := rtc.NewServer(mcuEP, clk)
	return &gwFixture{clk: clk, net: net, env: env, server: server}
}

func (f *gwFixture) drive(t *testing.T, op func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		case <-deadline:
			t.Fatal("simulated op did not complete")
		default:
			time.Sleep(200 * time.Microsecond)
			f.clk.Advance(10 * time.Millisecond)
		}
	}
}

func (f *gwFixture) session(t *testing.T, node, conf, member string) *rtc.Session {
	t.Helper()
	ep := rpc.NewEndpoint(f.net.MustAddNode(netsim.Address(node)), f.clk)
	return rtc.NewSession(ep, f.clk, "mcu", conf, member)
}

func TestAllQuadrantsRegister(t *testing.T) {
	f := newGWFixture(t)
	if _, err := NewMeetingRoom(f.env, f.server); err != nil {
		t.Fatal(err)
	}
	if err := RegisterDesktopConference(f.env); err != nil {
		t.Fatal(err)
	}
	if err := RegisterTeamRoom(f.env); err != nil {
		t.Fatal(err)
	}
	if err := RegisterMessageSystem(f.env); err != nil {
		t.Fatal(err)
	}
	quads := f.env.Quadrants()
	if len(quads) != 4 {
		t.Fatalf("environment hosts %d quadrants, want all 4: %v", len(quads), quads)
	}
}

func TestMeetingRoomMinutes(t *testing.T) {
	f := newGWFixture(t)
	room, err := NewMeetingRoom(f.env, f.server)
	if err != nil {
		t.Fatal(err)
	}
	scribe := f.session(t, "room-terminal", room.ConferenceID(), "scribe")
	f.drive(t, scribe.Join)
	f.drive(t, func() error { _, err := scribe.RequestFloor(); return err })
	f.drive(t, func() error { return scribe.Set("agenda-1", "review models") })
	f.drive(t, func() error { return scribe.Set("agenda-2", "odp mapping") })
	f.clk.RunUntilIdle()

	minutes, err := room.PublishMinutes("scribe", "weekly sync")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(minutes.Fields["notes"], "agenda-1 = review models") {
		t.Fatalf("minutes = %q", minutes.Fields["notes"])
	}
}

func TestCrossQuadrantInterop(t *testing.T) {
	// The headline openness property: minutes written in the co-located
	// meeting room are readable by the remote message system, because
	// both registered with the environment.
	f := newGWFixture(t)
	room, err := NewMeetingRoom(f.env, f.server)
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterMessageSystem(f.env); err != nil {
		t.Fatal(err)
	}
	scribe := f.session(t, "room-terminal", room.ConferenceID(), "scribe")
	f.drive(t, scribe.Join)
	f.drive(t, func() error { _, err := scribe.RequestFloor(); return err })
	f.drive(t, func() error { return scribe.Set("decision", "ship v1") })
	f.clk.RunUntilIdle()

	minutes, err := room.PublishMinutes("scribe", "release meeting")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.env.Space().Share("scribe", minutes.ID, "klaus", false); err != nil {
		t.Fatal(err)
	}
	asMessage, err := f.env.ShareAcross("klaus", minutes.ID, "message-system")
	if err != nil {
		t.Fatal(err)
	}
	if asMessage.Fields["subject"] != "release meeting" {
		t.Fatalf("converted = %+v", asMessage.Fields)
	}
	if !strings.Contains(asMessage.Fields["text"], "decision = ship v1") {
		t.Fatalf("converted body = %q", asMessage.Fields["text"])
	}
}
