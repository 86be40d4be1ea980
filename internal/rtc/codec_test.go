package rtc

import (
	"encoding"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mocca/internal/channel"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
	"mocca/internal/wire/wiretest"
)

// harnessEvent is the event the workload harness's rtc.set fans out.
func harnessEvent() Event {
	return Event{Conference: "conf-000003", Seq: 41, Kind: EventState, From: "u00012",
		Key: "cursor-u00012", Value: "pos 5120", At: netsim.DefaultEpoch.Add(90*time.Second + 250*time.Millisecond)}
}

// bodyCases covers every conference message: as the harness and the
// administrative round send them and at the corners of each one's shape.
func bodyCases() []wiretest.Case {
	rng := rand.New(rand.NewSource(21))
	state := map[string]string{"agenda": "1. models 2. odp", "títle": "naïve ☃", "empty": "", "cursor-u00012": "pos 5120"}
	snapshot := Event{Conference: "conf-ünï", Seq: 1 << 40, Kind: EventSnapshot, State: state, At: time.Unix(-86400, 999999999).UTC()}
	reinserted := snapshot
	reinserted.State = wiretest.Reinserted(rng, state)
	emptyState := harnessEvent()
	emptyState.State = map[string]string{}
	joined := joinResp{Seq: 41, State: state, Members: []string{"u00003", "u00012", "jürgen"}, Mode: int(ModeFloor), Title: "act0003"}
	return []wiretest.Case{
		wiretest.Of("event/set", harnessEvent(), emptyState),
		wiretest.Of("event/snapshot", snapshot, reinserted),
		wiretest.Of("event/joined", Event{Conference: "conf-000003", Seq: 1, Kind: EventJoined, From: "u00012", At: netsim.DefaultEpoch}),
		wiretest.Of("event/zero", Event{}),
		wiretest.Of("joinReq", joinReq{Conference: "conf-000003", Member: "u00012", Addr: "rtc-u00012"}),
		wiretest.Of("joinReq/zero", joinReq{}),
		wiretest.Of("joinResp", joined, joinResp{Seq: 41, State: wiretest.Reinserted(rng, state), Members: joined.Members, Mode: int(ModeFloor), Title: "act0003"}),
		wiretest.Of("joinResp/first member", joinResp{Members: []string{"u00012"}, Mode: int(ModeOpen), Title: "act0003"},
			joinResp{State: map[string]string{}, Members: []string{"u00012"}, Mode: int(ModeOpen), Title: "act0003"}),
		wiretest.Of("joinResp/zero", joinResp{}, joinResp{State: map[string]string{}, Members: []string{}}),
		wiretest.Of("joinResp/negative mode", joinResp{Mode: -1}),
		wiretest.Of("updateReq", updateReq{Conference: "conf-000003", Member: "u00012", Kind: EventState, Key: "cursor-u00012", Value: "pos 5120"}),
		wiretest.Of("updateReq/pointer", updateReq{Conference: "conf-ünï", Member: "jürgen", Kind: EventPointer, Value: "12,☃"}),
		wiretest.Of("updateReq/zero", updateReq{}),
		wiretest.Of("updateResp", updateResp{Seq: 41}),
		wiretest.Of("updateResp/zero", updateResp{}),
		wiretest.Of("memberReq", memberReq{Conference: "conf-000003", Member: "u00012"}),
		wiretest.Of("memberReq/zero", memberReq{}),
		wiretest.Of("floorResp", floorResp{Holder: "u00012"}),
		wiretest.Of("floorResp/free", floorResp{}),
	}
}

func TestBodiesRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, bodyCases())
}

func TestBodiesGolden(t *testing.T) {
	wiretest.Golden(t, bodyCases(), map[string]string{
		"event/set": "a10000000b636f6e662d3030303030330000000000000029000000057374617465000000067530303031320000000d63" +
			"7572736f722d75303030313200000008706f7320353132300000000000000000000000002a34736a0ee6b280",
		"joinReq": "a20000000b636f6e662d303030303033000000067530303031320000000a7274632d753030303132",
		"joinResp": "a300000000000000290000000000000004000000066167656e646100000010312e206d6f64656c7320322e206f647000" +
			"00000d637572736f722d75303030313200000008706f73203531323000000005656d707479000000000000000674c3ad" +
			"746c650000000a6e61c3af766520e2988300000000000000030000000675303030303300000006753030303132000000" +
			"076ac3bc7267656e00000000000000020000000761637430303033",
		"updateReq": "a40000000b636f6e662d303030303033000000067530303031320000000573746174650000000d637572736f722d7530" +
			"3030313200000008706f732035313230",
		"updateResp": "a50000000000000029",
		"memberReq":  "a60000000b636f6e662d30303030303300000006753030303132",
		"floorResp":  "a700000006753030303132",
	})
}

func TestBodiesRejectDamage(t *testing.T) {
	huge := wire.AppendUint64(nil, 1<<60) // each count, aimed at
	zero := wire.AppendUint64(nil, 0)
	wiretest.RejectDamage(t, bodyCases(), map[string][]byte{
		// five empty strings and a sequence number precede an event's state
		"event state":       append(append([]byte{tagEvent}, make([]byte, 5*4+8)...), huge...),
		"snapshot state":    append(append([]byte{tagJoinResp}, zero...), huge...),
		"snapshot members":  append(append(append([]byte{tagJoinResp}, zero...), zero...), huge...),
		"update as a count": append([]byte{tagUpdateResp}, huge...),
	})
}

// tappedConference is an MCU and n member sessions ("m00"…), each on its own
// node, with the same options — a tap — on every endpoint.
// quietLink is a link that loses nothing.
var quietLink = netsim.LinkProfile{Latency: 10 * time.Millisecond}

type tappedConference struct {
	clk      *vclock.Simulated
	net      *netsim.Network
	sessions []*Session
}

func newTappedConference(tb testing.TB, n int, link netsim.LinkProfile, tap ...rpc.Option) *tappedConference {
	tb.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(21), netsim.WithDefaultLink(link))
	server := NewServer(rpc.NewEndpoint(net.MustAddNode("mcu"), clk, tap...), clk)
	cid, err := server.CreateConference("act0003", ModeOpen)
	if err != nil {
		tb.Fatal(err)
	}
	c := &tappedConference{clk: clk, net: net}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("m%02d", i)
		ep := rpc.NewEndpoint(net.MustAddNode(netsim.Address(name)), clk, tap...)
		c.sessions = append(c.sessions, NewSession(ep, clk, "mcu", cid, name))
	}
	return c
}

// joinAll joins every session, as the harness does: asynchronously, on the
// event goroutine. It returns how many joined.
func (c *tappedConference) joinAll() (joined int) {
	for _, s := range c.sessions {
		s.GoJoin(func(err error) {
			if err == nil {
				joined++
			}
		})
	}
	c.clk.RunUntilIdle()
	return joined
}

// conferenceRound runs a real conference — three members join, each sets a
// key, the server fans every event out — and returns the bodies it put on
// the wire by rpc method.
func conferenceRound(tb testing.TB) map[string][][]byte {
	tb.Helper()
	bodies := map[string][][]byte{}
	c := newTappedConference(tb, 3, quietLink, wiretest.Tap(bodies))
	if joined := c.joinAll(); joined != 3 {
		tb.Fatalf("%d of 3 members joined", joined)
	}
	for i, s := range c.sessions {
		s.GoSet(fmt.Sprintf("cursor-%s", s.Member), fmt.Sprintf("pos %d", i), func(err error) {
			if err != nil {
				tb.Errorf("set by %s: %v", s.Member, err)
			}
		})
	}
	c.clk.RunUntilIdle()
	for _, s := range c.sessions {
		if got := s.State(); len(got) != 3 || s.Seq() != 6 {
			tb.Fatalf("%s ended at seq %d with state %v", s.Member, s.Seq(), got)
		}
	}
	return bodies
}

// adminRound runs the rest of a conference's protocol on a real exchange:
// two members join, one takes the floor and gives it back, the other
// leaves, and the first heartbeats. It returns the bodies put on the wire by rpc
// method.
func adminRound(tb testing.TB) map[string][][]byte {
	tb.Helper()
	bodies := map[string][][]byte{}
	c := newTappedConference(tb, 2, quietLink, wiretest.Tap(bodies))
	if joined := c.joinAll(); joined != 2 {
		tb.Fatalf("%d of 2 members joined", joined)
	}
	speaker, listener := c.sessions[0], c.sessions[1]
	call := func(s *Session, method string, req encoding.BinaryAppender, resp encoding.BinaryUnmarshaler) {
		s.endpoint.GoMsg(s.server, method, req, func(r rpc.Result) {
			if err := r.Decode(resp); err != nil {
				tb.Fatalf("%s: %v", method, err)
			}
		})
		c.clk.RunUntilIdle()
	}
	speaking := memberReq{Conference: speaker.Conference, Member: speaker.Member}
	var floor floorResp
	call(speaker, MethodFloorRequest, speaking, &floor)
	if floor.Holder != speaker.Member {
		tb.Fatalf("the floor went to %q", floor.Holder)
	}
	call(speaker, MethodFloorRelease, speaking, &floor)
	call(listener, MethodLeave, memberReq{Conference: listener.Conference, Member: listener.Member}, &wire.Empty{})
	speaker.hbPeriod = time.Second
	speaker.scheduleHeartbeat()
	c.clk.Advance(time.Second + 50*time.Millisecond)
	speaker.Detach() // stops the heartbeat
	return bodies
}

// TestConferenceBodiesAreBinary: on a real join + set + fan-out, and on
// every other conference call, every body — request, reply and
// announcement — is a binary one or the empty body of a message with nothing
// to say.
func TestConferenceBodiesAreBinary(t *testing.T) {
	bodies := conferenceRound(t)
	for _, method := range []string{MethodJoin, MethodUpdate, MethodEvent} {
		if len(bodies[method]) < 6 {
			t.Fatalf("the round put %d %s bodies on the wire", len(bodies[method]), method)
		}
	}
	maps.Copy(bodies, adminRound(t))
	for _, method := range []string{MethodHeartbeat, MethodFloorRequest, MethodFloorRelease, MethodLeave} {
		if len(bodies[method]) == 0 {
			t.Fatalf("the admin round put no %s body on the wire", method)
		}
	}
	for method, list := range bodies {
		for _, b := range list {
			if len(b) > 0 && b[0] < 0x80 {
				t.Fatalf("%s body opens with %#x: %q", method, b[0], b)
			}
		}
	}
}

// FuzzRTCBodies: whatever bytes arrive, a decoder either refuses them or
// yields a message that encodes and decodes back to itself. The seeds
// include the bodies an older peer sent for the retired messages.
func FuzzRTCBodies(f *testing.F) {
	round := conferenceRound(f)
	maps.Copy(round, adminRound(f))
	for _, list := range round {
		for _, b := range list {
			f.Add(b)
		}
	}
	for _, c := range bodyCases() {
		f.Add(c.Encode(f))
	}
	for _, b := range wiretest.Retired(f, "testdata/retired-bodies.txt") {
		f.Add(b)
	}
	wiretest.Fuzz(f, []wiretest.Case{
		wiretest.Of("event", Event{}), wiretest.Of("joinReq", joinReq{}), wiretest.Of("joinResp", joinResp{}),
		wiretest.Of("updateReq", updateReq{}), wiretest.Of("updateResp", updateResp{}),
		wiretest.Of("memberReq", memberReq{}), wiretest.Of("floorResp", floorResp{}),
	})
}

// TestEventFanOutEncodesOnce: one update builds one event body, and every
// member's announcement is handed that same slice.
func TestEventFanOutEncodesOnce(t *testing.T) {
	var fanOut [][]byte
	c := newTappedConference(t, 5, quietLink, rpc.WithChannel(channel.WithInterceptor(func(f *channel.Frame) error {
		if method, _ := f.Env.Header("method"); f.Dir == channel.Outbound && f.Local == "mcu" && method == MethodEvent {
			fanOut = append(fanOut, f.Env.Body) // the slice the server handed over, not a copy
		}
		return nil
	})))
	if joined := c.joinAll(); joined != 5 {
		t.Fatalf("%d of 5 members joined", joined)
	}
	fanOut = nil
	c.sessions[2].GoSet("agenda", "1. models 2. odp", nil)
	c.clk.RunUntilIdle()
	if len(fanOut) != 5 {
		t.Fatalf("the update was announced %d times, want once per member", len(fanOut))
	}
	for _, b := range fanOut[1:] {
		if &b[0] != &fanOut[0][0] || len(b) != len(fanOut[0]) {
			t.Fatal("a member was sent its own encoding of the event")
		}
	}
	for _, s := range c.sessions {
		if got := s.Get("agenda"); got != "1. models 2. odp" {
			t.Fatalf("%s sees agenda %q", s.Member, got)
		}
	}
}

// TestFanOutOrderIsSeeded: on a link that loses frames the network draws
// from its seeded generator once per send, so the order a fan-out sends in
// decides which member misses which event. Sent in address order, two runs
// of one seed leave every session, and the network's counters, alike.
func TestFanOutOrderIsSeeded(t *testing.T) {
	type sessionState struct {
		Seq     uint64
		Pending int
	}
	run := func() ([]sessionState, netsim.Stats) {
		c := newTappedConference(t, 12, netsim.LinkProfile{Latency: 10 * time.Millisecond, Loss: 0.15})
		if joined := c.joinAll(); joined < 6 {
			t.Fatalf("%d of 12 members joined; too few for the order to matter", joined)
		}
		for i := 0; i < 40; i++ {
			c.sessions[i%len(c.sessions)].GoSet("k", fmt.Sprint(i), nil)
		}
		c.clk.RunUntilIdle()
		states := make([]sessionState, len(c.sessions))
		for i, s := range c.sessions {
			s.mu.Lock()
			states[i] = sessionState{s.seq, len(s.pending)}
			s.mu.Unlock()
		}
		return states, c.net.Stats()
	}
	first, firstNet := run()
	if firstNet.Dropped == 0 {
		t.Fatal("the lossy link lost nothing")
	}
	for i := 0; i < 3; i++ {
		if again, againNet := run(); !reflect.DeepEqual(again, first) || againNet != firstNet {
			t.Fatalf("run %d of the same seed differs\nsessions %v\n     was %v\nnetwork %+v\n    was %+v", i+2, again, first, againNet, firstNet)
		}
	}
}

// TestEventDecodeAllocations: decoding the harness's event costs its four
// strings besides the kind and nothing else — no map, no scratch, no error;
// a known kind decodes to its constant. A kind no conference sends still
// decodes, as its text.
func TestEventDecodeAllocations(t *testing.T) {
	body, _ := harnessEvent().AppendBinary(nil)
	var ev Event
	if got := testing.AllocsPerRun(200, func() {
		if err := ev.UnmarshalBinary(body); err != nil {
			t.Fatal(err)
		}
	}); got > 4 {
		t.Fatalf("decoding an event allocates %v times, want at most its four strings", got)
	}
	if !reflect.DeepEqual(ev, harnessEvent()) {
		t.Fatalf("decoded %+v", ev)
	}
	for _, kind := range append(eventKinds[:], "", "stat", "states", "custom") {
		want := harnessEvent()
		want.Kind = kind
		body, _ := want.AppendBinary(nil)
		var got Event
		if err := got.UnmarshalBinary(body); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("kind %q: decoded %+v, %v", kind, got, err)
		}
		req := updateReq{Conference: "c", Member: "m", Kind: kind, Key: "k", Value: "v"}
		body, _ = req.AppendBinary(nil)
		var back updateReq
		if err := back.UnmarshalBinary(body); err != nil || back != req {
			t.Errorf("updateReq kind %q: decoded %+v, %v", kind, back, err)
		}
	}
}

var benchSink int

// BenchmarkEventCodec prices the fan-out's unit, each way.
func BenchmarkEventCodec(b *testing.B) {
	body, err := harnessEvent().AppendBinary(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, _ := harnessEvent().AppendBinary(nil)
			benchSink += len(out)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var ev Event
			if err := ev.UnmarshalBinary(body); err != nil {
				b.Fatal(err)
			}
			benchSink += int(ev.Seq)
		}
	})
}
