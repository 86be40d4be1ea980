package placement

import (
	"bytes"
	"testing"
	"time"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
	"mocca/internal/wire/wiretest"
)

// forwardedRow is the row the read-and-forward round forwards and reads
// back, in the form it decodes to.
func forwardedRow() *information.Object {
	return &information.Object{ID: "info-fwd", Schema: "doc", Owner: "ada", Site: "rd",
		Fields:  map[string]string{"title": "routed", "body": "scoped"},
		Version: 1, VV: vclock.NewVersion("rd"), Created: netsim.DefaultEpoch, Updated: netsim.DefaultEpoch}
}

// bodyCases covers the three placement messages: as the round sends them and
// at the corners of each one's shape.
func bodyCases() []wiretest.Case {
	at := time.Unix(0, 708080400123456789).UTC()
	wide := &information.Object{ID: "obj-ünï-日本", Schema: "dök", Owner: "jürgen", Site: "köln", Version: 3,
		VV: vclock.Version{"köln": 1, "rd": 2}, Fields: map[string]string{"títle": "naïve ☃", "": "empty key"}, Created: at, Updated: at}
	bare := &information.Object{ID: "bare", Schema: "doc", Created: at, Updated: at}
	return []wiretest.Case{
		wiretest.Of("readReq", readReq{Actor: "ada", ObjectID: "info-fwd"}),
		wiretest.Of("readReq/zero", readReq{}),
		wiretest.Of("siteRow", siteRow{Site: "h1", Object: forwardedRow()}),
		wiretest.Of("siteRow/wide", siteRow{Site: "köln", Object: wide}),
		wiretest.Of("siteRow/bare", siteRow{Object: bare}),
		wiretest.Of("writeResp", writeResp{Site: "h1", Applied: true}),
		wiretest.Of("writeResp/unchanged", writeResp{Site: "h1"}),
		wiretest.Of("writeResp/zero", writeResp{}),
	}
}

func TestBodiesRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, bodyCases())
}

func TestBodiesGolden(t *testing.T) {
	wiretest.Golden(t, bodyCases(), map[string]string{
		"readReq": "e10000000361646100000008696e666f2d667764",
		"siteRow": "e200000002683100000008696e666f2d66776400000003646f630000000361646100000002726400000000000000" +
			"010000000000000001000000027264000000000000000109d39b5f4a6aa00009d39b5f4a6aa0000000000000000002000000" +
			"04626f64790000000673636f706564000000057469746c6500000006726f75746564",
		"writeResp": "e301000000026831",
	})
}

func TestBodiesRejectDamage(t *testing.T) {
	huge := wire.AppendUint64(nil, 1<<60)                           // each count, aimed at
	rowHead := append([]byte{tagSiteRow}, make([]byte, 4+4*4+8)...) // no site; a row's four empty strings and its version
	noVV := append(bytes.Clone(rowHead), make([]byte, 8+2*8)...)    // an empty vector and two instants
	wiretest.RejectDamage(t, bodyCases(), map[string][]byte{
		"vector": append(bytes.Clone(rowHead), huge...),
		"fields": append(bytes.Clone(noVV), huge...),
	})
	// The prefix is what it claims: closed with a zero count, a row.
	if err := new(siteRow).UnmarshalBinary(append(bytes.Clone(noVV), wire.AppendUint64(nil, 0)...)); err != nil {
		t.Fatalf("the aimed bodies' prefix is not a siteRow's: %v", err)
	}
}

// placementRound forwards a row off the reading site to the holder it is
// placed at, reads it back from that holder, and asks it for an id it does
// not have; it returns the bodies put on the wire by rpc method.
func placementRound(tb testing.TB) map[string][][]byte {
	tb.Helper()
	bodies := map[string][][]byte{}
	f := newTappedReadFixture(tb, []string{"h0", "h1"}, []rpc.Option{wiretest.Tap(bodies)})
	f.policy.Use(ByField("body", "scoped", "h1"))
	obj := forwardedRow()
	obj.Created, obj.Updated = f.clk.Now(), f.clk.Now()
	var site string
	var err error
	f.reader.Forward(obj, f.policy.SitesFor(Describe(obj)), func(s string, e error) { site, err = s, e })
	f.clk.RunUntilIdle()
	if err != nil || site != "h1" {
		tb.Fatalf("forward = %q, %v", site, err)
	}
	ua := rpc.NewEndpoint(f.net.MustAddNode("place-ua"), f.clk, wiretest.Tap(bodies))
	var read siteRow
	var missed error
	ua.GoMsg("place-h1", MethodRead, readReq{Actor: "ada", ObjectID: obj.ID}, func(r rpc.Result) { err = r.Decode(&read) })
	ua.GoMsg("place-h1", MethodRead, readReq{Actor: "ada", ObjectID: "info-missing"}, func(r rpc.Result) { missed = r.Err })
	f.clk.RunUntilIdle()
	if err != nil || read.Site != "h1" || read.Object.Fields["title"] != "routed" || read.Object.Version != 1 || missed == nil {
		tb.Fatalf("read %+v, %v; a missing id read with %v", read, err, missed)
	}
	return bodies
}

// TestPlacementBodiesAreBinary: on a real forward and read every body,
// request and reply, is a binary one.
func TestPlacementBodiesAreBinary(t *testing.T) {
	bodies := placementRound(t)
	for _, method := range []string{MethodRead, MethodWrite} {
		if len(bodies[method]) < 2 {
			t.Fatalf("the round put %d %s bodies on the wire", len(bodies[method]), method)
		}
		for _, b := range bodies[method] {
			if len(b) > 0 && b[0] < 0x80 {
				t.Fatalf("%s body opens with %#x: %q", method, b[0], b)
			}
		}
	}
}

// FuzzPlacementBodies: whatever bytes arrive, a decoder either refuses them
// or yields a message that encodes and decodes back to itself.
func FuzzPlacementBodies(f *testing.F) {
	for _, list := range placementRound(f) {
		for _, b := range list {
			f.Add(b)
		}
	}
	for _, c := range bodyCases() {
		f.Add(c.Encode(f))
	}
	wiretest.Fuzz(f, []wiretest.Case{wiretest.Of("readReq", readReq{}), wiretest.Of("siteRow", siteRow{}), wiretest.Of("writeResp", writeResp{})})
}
