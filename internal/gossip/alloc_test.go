package gossip

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mocca/internal/channel"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// skipUnderRace skips an allocation bound: under -race sync.Pool drops a
// share of what is put back, so pooled paths allocate.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what is put back, so pooled paths allocate")
	}
}

// mallocsPerRun is testing.AllocsPerRun without its rounding down: the
// mean number of heap allocations per call of f over runs calls, after one
// warm-up call. Frames leave state behind in the network that grows now
// and then while the clock stands still, so a bound over a fan-out
// compares means with half an allocation of slack.
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// markAll marks every link of o's active view lazy, or every link eager,
// and returns the split that follows.
func markAll(o *Overlay, lazy bool) *viewSplit {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range o.active {
		o.setLazyLocked(p.Addr, lazy)
	}
	return o.splitLocked()
}

// TestDuplicateReceiptAllocatesOnlyItsRows: a push whose dots the member
// has seen, served by the rumor handler, allocates what decoding its rows
// allocates and nothing more — the entries, the receipt's bookkeeping and
// the split cost nothing. The sender brought news since the dots' first
// copies, so the duplicate proves no link redundant and draws no prune.
func TestDuplicateReceiptAllocatesOnlyItsRows(t *testing.T) {
	skipUnderRace(t)
	clk, overlays, replicas := tappedOverlays(t, 4, func(*channel.Frame) {})
	o := overlays[1]
	view := o.ActiveView()
	if len(view) < 2 {
		t.Fatalf("g01's active view holds %d peers; the test needs two senders", len(view))
	}
	first, later := view[0].Addr, view[1].Addr
	dup := []rumorEntry{{ID: "obj-1", Site: "s003", Counter: 1}, {ID: "obj-2", Site: "s003", Counter: 2}}
	news := []rumorEntry{{ID: "obj-3", Site: "s003", Counter: 3}}
	rep := replicas[0]
	for i, d := range append(slices.Clone(dup), news...) {
		rep.rows[d.ID] = vclock.Version{"s003": uint64(i + 1)}
	}
	bodyOf := func(dots []rumorEntry) []byte {
		body, _ := pushOf(rep, dots...).AppendBinary(nil)
		return body
	}
	serve := func(from netsim.Address, body []byte) {
		if _, err := o.handleRumor(rpc.Request{From: from, Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	serve(first, bodyOf(dup))
	serve(later, bodyOf(news))
	clk.RunUntilIdle()
	dupBody := bodyOf(dup)
	before := o.Stats()
	serve(later, dupBody)
	if after := o.Stats(); after.Prunes != before.Prunes || after.RumorsSeen != before.RumorsSeen+int64(len(dup)) {
		t.Fatalf("the duplicate moved prunes %d -> %d and rumors seen %d -> %d",
			before.Prunes, after.Prunes, before.RumorsSeen, after.RumorsSeen)
	}

	var rowBodies [][]byte
	for _, e := range pushOf(rep, dup...).Entries {
		rowBodies = append(rowBodies, information.AppendWireObject(nil, e.Row))
	}
	rowsOnly := testing.AllocsPerRun(100, func() {
		for _, b := range rowBodies {
			if _, _, err := information.DecodeWireObject(b); err != nil {
				t.Fatal(err)
			}
		}
	})
	receipt := testing.AllocsPerRun(100, func() { serve(later, dupBody) })
	if receipt > rowsOnly {
		t.Fatalf("a duplicate receipt of %d rows allocates %v times; decoding its rows alone, %v",
			len(dup), receipt, rowsOnly)
	}
}

// TestForwardAllocatesNothingForTheSplit: passing a write on to k eager
// peers costs what the push to them costs — its frames — and nothing for
// dividing the view: the split is built once and the sender is skipped in
// place.
func TestForwardAllocatesNothingForTheSplit(t *testing.T) {
	skipUnderRace(t)
	_, overlays, replicas := tappedOverlays(t, 5, func(*channel.Frame) {})
	o := overlays[0]
	sp := markAll(o, false)
	from := sp.eager[0].Addr
	if k := others(sp.eager, from); k < 2 {
		t.Fatalf("g00 has %d eager peers besides the sender; a fan-out needs at least two", k)
	}
	replicas[0].rows["obj-1"] = vclock.Version{"s003": 1}
	entries := []rumorEntry{{ID: "obj-1", Site: "s003", Counter: 1}}
	o.forward(entries, from, wire.TraceContext{}) // warm the endpoint's bindings
	split := testing.AllocsPerRun(100, func() {
		o.mu.Lock()
		if o.splitLocked() != sp {
			t.Fatal("the split was rebuilt though nothing changed")
		}
		o.mu.Unlock()
	})
	if split != 0 {
		t.Fatalf("reading the split allocates %v times", split)
	}
	forward := mallocsPerRun(100, func() { o.forward(entries, from, wire.TraceContext{}) })
	push := mallocsPerRun(100, func() { o.push(sp.eager, from, entries, wire.TraceContext{}) })
	if forward > push+0.5 {
		t.Fatalf("a forward allocates %v times, the push it makes %v", forward, push)
	}
}

// TestFlushAllocatesOnlyFrames: once the ihave queues have grown, queueing
// dots and flushing them costs each lazy peer's frame and nothing else:
// the queues keep their storage and the bodies are built in a pooled
// buffer.
func TestFlushAllocatesOnlyFrames(t *testing.T) {
	skipUnderRace(t)
	_, overlays, _ := tappedOverlays(t, 5, func(*channel.Frame) {})
	o := overlays[0]
	sp := markAll(o, true)
	if len(sp.lazy) < 2 {
		t.Fatalf("g00 has %d lazy peers; the test needs at least two", len(sp.lazy))
	}
	entries := []rumorEntry{{ID: "obj-1", Site: "s003", Counter: 1}, {ID: "obj-2", Site: "s003", Counter: 2}}
	cycle := func() {
		o.mu.Lock()
		o.queueIhavesLocked(sp.lazy, "", entries)
		o.mu.Unlock()
		o.flushIhaves()
	}
	cycle()
	body, _ := ihaveReq{Dots: []dot{entries[0].dot(), entries[1].dot()}}.AppendBinary(nil)
	frames := mallocsPerRun(100, func() {
		for _, p := range sp.lazy {
			_ = o.ep.Announce(p.Addr, MethodIhave, body)
		}
	})
	flush := mallocsPerRun(100, cycle)
	if flush > frames+0.5 {
		t.Fatalf("queueing and flushing %d ihaves allocates %v times; their frames alone, %v", len(sp.lazy), flush, frames)
	}
}

// TestSplitReplacedBesideFanOut: prunes, grafts and view changes replace
// the split while pushes fan out from snapshots taken before: a snapshot
// is never written once built, stays sorted by site, and never holds a
// peer both eager and lazy. Run under -race.
func TestSplitReplacedBesideFanOut(t *testing.T) {
	_, overlays, replicas := tappedOverlays(t, 6, func(*channel.Frame) {})
	o := overlays[0]
	view := o.ActiveView()
	replicas[0].rows["obj-1"] = vclock.Version{"g00": 1}
	entries := []rumorEntry{{ID: "obj-1", Site: "g00", Counter: 1}}
	bySite := func(a, b Peer) int { return cmp.Compare(a.Site, b.Site) }
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the marks a prune or a graft sets, and view changes
		defer wg.Done()
		for i := 0; i < 300; i++ {
			p := view[i%len(view)]
			o.mu.Lock()
			if indexOf(o.active, p.Addr) >= 0 {
				o.setLazyLocked(p.Addr, i%3 != 0)
			}
			o.mu.Unlock()
			if i%40 == 20 {
				o.removeActive(p.Addr)
				o.addActive(p, true, notRing)
			}
		}
	}()
	go func() { // fan-outs from snapshots
		defer wg.Done()
		for i := 0; i < 300; i++ {
			o.mu.Lock()
			sp := o.splitLocked()
			o.mu.Unlock()
			eager, lazy := slices.Clone(sp.eager), slices.Clone(sp.lazy)
			o.push(sp.eager, "", entries, wire.TraceContext{})
			if !slices.Equal(sp.eager, eager) || !slices.Equal(sp.lazy, lazy) {
				t.Error("a split changed under the fan-out reading it")
				return
			}
			if !slices.IsSortedFunc(eager, bySite) {
				t.Errorf("eager peers %v are not in site order", eager)
				return
			}
			for _, p := range lazy {
				if indexOf(eager, p.Addr) >= 0 {
					t.Errorf("%s is both eager and lazy", p.Site)
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestFlushBesideQueueing: a flush that empties the ihave queues, keeping
// their storage, runs beside a goroutine queueing dots: every dot queued
// goes out exactly once, in an ihave to each lazy peer, and no body names
// a dot twice or one never queued. Run under -race.
func TestFlushBesideQueueing(t *testing.T) {
	var mu sync.Mutex
	sent := map[netsim.Address][]uint64{}
	_, overlays, _ := tappedOverlays(t, 5, func(f *channel.Frame) {
		if m, _ := f.Env.Header("method"); f.Dir != channel.Outbound || f.Local != "gossip-g00" || m != MethodIhave {
			return
		}
		var req ihaveReq
		if err := req.UnmarshalBinary(f.Env.Body); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		for _, d := range req.Dots {
			sent[f.Remote] = append(sent[f.Remote], d.Counter)
		}
		mu.Unlock()
	})
	o := overlays[0]
	sp := markAll(o, true)
	const n = 500
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for c := uint64(1); c <= n; c++ {
			o.mu.Lock()
			o.queueIhavesLocked(sp.lazy, "", []rumorEntry{{ID: "obj", Site: "s003", Counter: c}})
			o.mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n/5; i++ {
			o.flushIhaves()
		}
	}()
	wg.Wait()
	o.flushIhaves()
	if got, want := o.Stats().IhaveDots, int64(n*len(sp.lazy)); got != want {
		t.Fatalf("the ihaves named %d dots, want %d", got, want)
	}
	for _, p := range sp.lazy {
		got := slices.Sorted(slices.Values(sent[p.Addr]))
		if len(got) != n || got[0] != 1 || got[n-1] != n || len(slices.Compact(got)) != n {
			t.Fatalf("%s was told of %d dots, want each of 1..%d once", p.Site, len(sent[p.Addr]), n)
		}
	}
}
