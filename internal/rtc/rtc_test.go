package rtc

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
)

type rtcFixture struct {
	clk    *vclock.Simulated
	net    *netsim.Network
	server *Server
	cid    string
}

func newRTCFixture(t *testing.T, mode Mode, opts ...Option) *rtcFixture {
	t.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(21))
	srvEP := rpc.NewEndpoint(net.MustAddNode("mcu"), clk)
	server := NewServer(srvEP, clk, opts...)
	cid, err := server.CreateConference("design meeting", mode)
	if err != nil {
		t.Fatal(err)
	}
	return &rtcFixture{clk: clk, net: net, server: server, cid: cid}
}

// session creates a participant on its own node.
func (f *rtcFixture) session(t *testing.T, name string, opts ...SessionOption) *Session {
	t.Helper()
	ep := rpc.NewEndpoint(f.net.MustAddNode(netsim.Address(name)), f.clk)
	return NewSession(ep, f.clk, "mcu", f.cid, name, opts...)
}

// drive runs a blocking session op while the test goroutine advances time.
func (f *rtcFixture) drive(t *testing.T, op func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case err := <-done:
			return err
		case <-deadline:
			t.Fatal("simulated op did not complete")
		default:
			time.Sleep(200 * time.Microsecond)
			f.clk.Advance(20 * time.Millisecond)
		}
	}
}

func (f *rtcFixture) mustDrive(t *testing.T, op func() error) {
	t.Helper()
	if err := f.drive(t, op); err != nil {
		t.Fatal(err)
	}
}

func TestJoinUpdatePropagates(t *testing.T) {
	f := newRTCFixture(t, ModeOpen)
	alice := f.session(t, "alice")
	bob := f.session(t, "bob")
	f.mustDrive(t, alice.Join)
	f.mustDrive(t, bob.Join)

	f.mustDrive(t, func() error { return alice.Set("agenda", "1. models 2. odp") })
	f.clk.RunUntilIdle()

	if got := bob.Get("agenda"); got != "1. models 2. odp" {
		t.Fatalf("bob replica agenda = %q", got)
	}
	if got := alice.Get("agenda"); got != "1. models 2. odp" {
		t.Fatalf("alice replica agenda = %q", got)
	}
}

func TestWYSIWISConvergence(t *testing.T) {
	f := newRTCFixture(t, ModeOpen)
	names := []string{"a", "b", "c", "d"}
	sessions := make([]*Session, len(names))
	for i, n := range names {
		sessions[i] = f.session(t, n)
		f.mustDrive(t, sessions[i].Join)
	}
	// Everyone writes the same key concurrently, many times.
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				_ = s.Set("doc", names[i]+"-"+string(rune('0'+j)))
			}
		}(i, s)
	}
	fin := make(chan struct{})
	go func() { wg.Wait(); close(fin) }()
	deadline := time.After(10 * time.Second)
loop:
	for {
		select {
		case <-fin:
			break loop
		case <-deadline:
			t.Fatal("writers did not finish")
		default:
			time.Sleep(200 * time.Microsecond)
			f.clk.Advance(20 * time.Millisecond)
		}
	}
	f.clk.RunUntilIdle()
	// All replicas converge to the same value and sequence.
	want := sessions[0].Get("doc")
	wantSeq := sessions[0].Seq()
	for _, s := range sessions[1:] {
		if s.Get("doc") != want {
			t.Fatalf("replica %s diverged: %q vs %q", s.Member, s.Get("doc"), want)
		}
		if s.Seq() != wantSeq {
			t.Fatalf("replica %s at seq %d, want %d", s.Member, s.Seq(), wantSeq)
		}
	}
}

func TestEventsDeliveredInOrder(t *testing.T) {
	f := newRTCFixture(t, ModeOpen)
	var got []uint64
	watcher := f.session(t, "watcher", OnEvent(func(ev Event) { got = append(got, ev.Seq) }))
	f.mustDrive(t, watcher.Join)
	writer := f.session(t, "writer")
	f.mustDrive(t, writer.Join)
	for i := 0; i < 20; i++ {
		f.mustDrive(t, func() error { return writer.Set("k", "v") })
	}
	f.clk.RunUntilIdle()
	if len(got) < 20 {
		t.Fatalf("watcher saw %d events", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("events out of order: %v", got)
		}
	}
}

func TestFloorControl(t *testing.T) {
	f := newRTCFixture(t, ModeFloor)
	speaker := f.session(t, "speaker")
	heckler := f.session(t, "heckler")
	f.mustDrive(t, speaker.Join)
	f.mustDrive(t, heckler.Join)

	// Updates without the floor are denied.
	err := f.drive(t, func() error { return heckler.Set("slide", "1") })
	var remote *rpc.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "floor") {
		t.Fatalf("floorless update err = %v", err)
	}

	f.mustDrive(t, func() error {
		_, err := speaker.RequestFloor()
		return err
	})
	f.mustDrive(t, func() error { return speaker.Set("slide", "2") })

	// Heckler cannot steal the floor.
	err = f.drive(t, func() error {
		_, err := heckler.RequestFloor()
		return err
	})
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "held") {
		t.Fatalf("steal floor err = %v", err)
	}

	// Release passes it on.
	f.mustDrive(t, speaker.ReleaseFloor)
	f.mustDrive(t, func() error {
		_, err := heckler.RequestFloor()
		return err
	})
	f.mustDrive(t, func() error { return heckler.Set("slide", "3") })
	f.clk.RunUntilIdle()
	if speaker.Get("slide") != "3" {
		t.Fatalf("speaker slide = %q", speaker.Get("slide"))
	}
	if speaker.Floor() != "heckler" {
		t.Fatalf("speaker sees floor = %q", speaker.Floor())
	}
}

func TestFloorFreesWhenHolderLeaves(t *testing.T) {
	f := newRTCFixture(t, ModeFloor)
	a := f.session(t, "a")
	b := f.session(t, "b")
	f.mustDrive(t, a.Join)
	f.mustDrive(t, b.Join)
	f.mustDrive(t, func() error { _, err := a.RequestFloor(); return err })
	f.mustDrive(t, a.Leave)
	f.mustDrive(t, func() error { _, err := b.RequestFloor(); return err })
	f.clk.RunUntilIdle()
	if b.Floor() != "b" {
		t.Fatalf("floor = %q, want b", b.Floor())
	}
}

func TestLateJoinerGetsSnapshot(t *testing.T) {
	f := newRTCFixture(t, ModeOpen)
	early := f.session(t, "early")
	f.mustDrive(t, early.Join)
	f.mustDrive(t, func() error { return early.Set("minutes", "draft-7") })
	f.mustDrive(t, func() error { return early.Set("actions", "review models") })

	late := f.session(t, "late")
	f.mustDrive(t, late.Join)
	if late.Get("minutes") != "draft-7" || late.Get("actions") != "review models" {
		t.Fatalf("late joiner state = %v", late.State())
	}
	members := late.Members()
	if len(members) != 2 {
		t.Fatalf("late joiner members = %v", members)
	}
}

func TestPresencePropagates(t *testing.T) {
	f := newRTCFixture(t, ModeOpen)
	a := f.session(t, "a")
	f.mustDrive(t, a.Join)
	b := f.session(t, "b")
	f.mustDrive(t, b.Join)
	f.clk.RunUntilIdle()
	if got := a.Members(); len(got) != 2 {
		t.Fatalf("a sees members %v", got)
	}
	f.mustDrive(t, b.Leave)
	f.clk.RunUntilIdle()
	if got := a.Members(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("after leave, a sees %v", got)
	}
}

func TestHeartbeatEviction(t *testing.T) {
	f := newRTCFixture(t, ModeOpen, WithHeartbeatTimeout(30*time.Second))
	defer f.server.Close()
	// "quiet" heartbeats properly; "ghost" joins then goes silent.
	quiet := f.session(t, "quiet", WithHeartbeat(5*time.Second))
	ghost := f.session(t, "ghost")
	f.mustDrive(t, quiet.Join)
	f.mustDrive(t, ghost.Join)

	f.clk.Advance(2 * time.Minute)
	members, err := f.server.Members(f.cid)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || members[0] != "quiet" {
		t.Fatalf("members after eviction sweep = %v", members)
	}
	if st := f.server.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d", st.Evictions)
	}
	// The survivor heard about the eviction. (Bounded Advance, not
	// RunUntilIdle: heartbeat timers reschedule themselves forever.)
	f.clk.Advance(10 * time.Second)
	if got := quiet.Members(); len(got) != 1 {
		t.Fatalf("quiet sees %v", got)
	}
}

func TestResyncAfterPartition(t *testing.T) {
	f := newRTCFixture(t, ModeOpen)
	a := f.session(t, "a")
	b := f.session(t, "b")
	f.mustDrive(t, a.Join)
	f.mustDrive(t, b.Join)

	// Partition b away; a keeps writing.
	f.net.Partition([]netsim.Address{"mcu", "a"}, []netsim.Address{"b"})
	for i := 0; i < 5; i++ {
		f.mustDrive(t, func() error { return a.Set("k", "during-partition") })
	}
	f.clk.RunUntilIdle()
	if b.Get("k") == "during-partition" {
		t.Fatal("partitioned replica received updates")
	}
	// Joining again installs the server's snapshot over the gap.
	f.net.Heal()
	f.mustDrive(t, b.Join)
	f.clk.RunUntilIdle()
	if b.Get("k") != "during-partition" {
		t.Fatalf("after resync b.k = %q", b.Get("k"))
	}
	if b.Seq() != a.Seq() {
		t.Fatalf("seqs diverged after resync: %d vs %d", b.Seq(), a.Seq())
	}
}

func TestTelepointer(t *testing.T) {
	f := newRTCFixture(t, ModeOpen)
	var pointer string
	a := f.session(t, "a", OnEvent(func(ev Event) {
		if ev.Kind == EventPointer {
			pointer = ev.From + "@" + ev.Value
		}
	}))
	b := f.session(t, "b")
	f.mustDrive(t, a.Join)
	f.mustDrive(t, b.Join)
	// A pointer move is an rtc.update of kind EventPointer.
	f.mustDrive(t, func() error {
		return b.endpoint.CallMsg(b.server, MethodUpdate, updateReq{
			Conference: b.Conference, Member: b.Member, Kind: EventPointer, Value: "120,45",
		}, &updateResp{})
	})
	f.clk.RunUntilIdle()
	if pointer != "b@120,45" {
		t.Fatalf("pointer = %q", pointer)
	}
	// Telepointer must not pollute shared state.
	if len(a.State()) != 0 {
		t.Fatalf("state = %v", a.State())
	}
}

func TestUpdateFromNonMemberRejected(t *testing.T) {
	f := newRTCFixture(t, ModeOpen)
	outsider := f.session(t, "outsider")
	err := f.drive(t, func() error { return outsider.Set("k", "v") })
	var remote *rpc.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "not a member") {
		t.Fatalf("outsider update err = %v", err)
	}
}

func TestJoinUnknownConference(t *testing.T) {
	f := newRTCFixture(t, ModeOpen)
	ep := rpc.NewEndpoint(f.net.MustAddNode("x"), f.clk)
	s := NewSession(ep, f.clk, "mcu", "conf-bogus", "x")
	err := f.drive(t, s.Join)
	var remote *rpc.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "no such conference") {
		t.Fatalf("join bogus err = %v", err)
	}
}

func TestHistoryForTemporalBridge(t *testing.T) {
	f := newRTCFixture(t, ModeOpen)
	a := f.session(t, "a")
	f.mustDrive(t, a.Join)
	f.mustDrive(t, func() error { return a.Set("decision", "adopt ODP viewpoints") })
	f.mustDrive(t, a.Leave)
	f.clk.RunUntilIdle()

	hist, err := f.server.History(f.cid)
	if err != nil {
		t.Fatal(err)
	}
	// join + state + leave
	if len(hist) != 3 {
		t.Fatalf("history = %d events", len(hist))
	}
	kinds := []EventKind{hist[0].Kind, hist[1].Kind, hist[2].Kind}
	if kinds[0] != EventJoined || kinds[1] != EventState || kinds[2] != EventLeft {
		t.Fatalf("history kinds = %v", kinds)
	}
}
