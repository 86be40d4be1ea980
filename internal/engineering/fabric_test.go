package engineering

import (
	"strings"
	"testing"
)

func TestFabricBookkeeping(t *testing.T) {
	f := NewFabric()
	f.ChannelBound("a", "b", 1)
	f.FrameSent("a", "b", 100)
	f.FrameReceived("b", "a", 100)
	f.FrameSent("a", "b", 50)
	f.FrameReceived("b", "a", 50)
	f.ChannelRebound("a", "b", 2)

	chans := f.Channels()
	if len(chans) != 2 {
		t.Fatalf("channels = %d, want 2 (a→b and b←a)", len(chans))
	}
	ab := chans[0]
	if ab.Local != "a" || ab.Remote != "b" || ab.Epoch != 2 || ab.Rebinds != 1 {
		t.Fatalf("a→b record = %+v", ab)
	}
	if ab.FramesOut != 2 || ab.BytesOut != 150 {
		t.Fatalf("a→b traffic = %+v", ab)
	}
	ba := chans[1]
	if ba.FramesIn != 2 || ba.BytesIn != 150 {
		t.Fatalf("b←a traffic = %+v", ba)
	}

	// Each address the fabric has seen locally counts as one node.
	totals := f.Totals()
	if totals.Nodes != 2 || totals.Channels != 2 || totals.FramesOut != 2 || totals.FramesIn != 2 {
		t.Fatalf("totals = %+v", totals)
	}
}

func TestFabricReconcile(t *testing.T) {
	f := NewFabric()
	f.FrameSent("a", "b", 64)
	f.FrameReceived("b", "a", 64)

	if err := f.Reconcile(1, 1, 64); err != nil {
		t.Fatalf("reconcile failed: %v", err)
	}
	err := f.Reconcile(2, 1, 64)
	if err == nil || !strings.Contains(err.Error(), "network sent 2") {
		t.Fatalf("mismatch not detected: %v", err)
	}
	if err := f.Reconcile(1, 2, 64); err == nil {
		t.Fatal("delivered mismatch not detected")
	}
	if err := f.Reconcile(1, 1, 65); err == nil {
		t.Fatal("bytes mismatch not detected")
	}

	// Frames the channel layer discarded (stale epoch, decode error,
	// interceptor veto) still reconcile: the network delivered them, the
	// fabric accounts them as discards.
	f.FrameSent("a", "b", 32)
	f.FrameDiscarded("b", "a", 32, "stale-epoch")
	if err := f.Reconcile(2, 2, 96); err != nil {
		t.Fatalf("reconcile with discard failed: %v", err)
	}
	if totals := f.Totals(); totals.DiscardsIn != 1 || totals.DiscardBytesIn != 32 {
		t.Fatalf("totals = %+v", totals)
	}
}

func TestFabricTotalsFor(t *testing.T) {
	f := NewFabric()
	f.FrameSent("repl-gmd", "repl-upc", 100)
	f.FrameSent("repl-upc", "repl-gmd", 40)
	f.FrameReceived("repl-upc", "repl-gmd", 100)
	f.FrameSent("mta-gmd", "mta-upc", 999)

	repl := f.TotalsFor("repl-")
	if repl.Nodes != 2 || repl.Channels != 2 {
		t.Fatalf("repl slice = %+v", repl)
	}
	if repl.FramesOut != 2 || repl.BytesOut != 140 || repl.FramesIn != 1 || repl.BytesIn != 100 {
		t.Fatalf("repl counters = %+v", repl)
	}
	if mta := f.TotalsFor("mta-"); mta.Channels != 1 || mta.BytesOut != 999 {
		t.Fatalf("mta slice = %+v", mta)
	}
	if none := f.TotalsFor("user-"); none.Channels != 0 || none.Nodes != 0 {
		t.Fatalf("empty slice = %+v", none)
	}
	// The slices partition the fabric's totals.
	all := f.Totals()
	if repl.FramesOut+f.TotalsFor("mta-").FramesOut != all.FramesOut {
		t.Fatal("slices do not partition totals")
	}
}
