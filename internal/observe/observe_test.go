package observe

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mocca/internal/wire"
)

// fakeClock is a hand-advanced clock for span timing tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) advance(d time.Duration) {
	c.t = c.t.Add(d)
}

func TestTracerParentingAndDeterminism(t *testing.T) {
	mk := func() []Span {
		clk := &fakeClock{t: time.Unix(0, 0)}
		tr := NewTracer(42, 16, clk.now)
		root := tr.StartRoot("write", "gmd")
		clk.advance(time.Millisecond)
		child := tr.StartChild("forward", "gmd", root.Context())
		clk.advance(time.Millisecond)
		child.End()
		root.End()
		return tr.Spans()
	}
	a, b := mk(), mk()
	if len(a) != 2 {
		t.Fatalf("got %d spans, want 2", len(a))
	}
	if a[0].Name != "write" || a[1].Name != "forward" {
		t.Fatalf("span order: %s, %s", a[0].Name, a[1].Name)
	}
	if a[1].TraceID != a[0].TraceID {
		t.Fatalf("child left the trace: %x vs %x", a[1].TraceID, a[0].TraceID)
	}
	if a[1].Parent != a[0].SpanID {
		t.Fatalf("child parent = %x, want %x", a[1].Parent, a[0].SpanID)
	}
	if a[1].Duration() != time.Millisecond {
		t.Fatalf("child duration = %v", a[1].Duration())
	}
	for i := range a {
		if a[i].SpanID != b[i].SpanID || a[i].TraceID != b[i].TraceID {
			t.Fatalf("same seed produced different ids: %+v vs %+v", a[i], b[i])
		}
	}
	if c := NewTracer(43, 16, time.Now); c.nextID() == NewTracer(42, 16, time.Now).nextID() {
		t.Fatalf("different seeds produced the same first id")
	}
}

func TestTracerNilAndDisabled(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x", "s")
	sp.SetAttr("k", "v")
	sp.End() // must not panic
	if tr.On() || sp.Active() || !sp.Context().IsZero() {
		t.Fatalf("nil tracer produced an active span")
	}
	if tr.Spans() != nil || tr.SlowOps() != nil {
		t.Fatalf("nil tracer returned spans")
	}

	tr2 := NewTracer(1, 4, time.Now)
	tr2.SetEnabled(false)
	if sp := tr2.StartRoot("x", "s"); sp.Active() {
		t.Fatalf("disabled tracer produced an active span")
	}
	tr2.SetEnabled(true)
	if sp := tr2.StartRoot("x", "s"); !sp.Active() {
		t.Fatalf("re-enabled tracer stayed inert")
	}
	// A zero parent context never records.
	if sp := tr2.StartChild("x", "s", wire.TraceContext{}); sp.Active() {
		t.Fatalf("zero parent produced an active span")
	}
}

func TestTracerRingBoundAndCounts(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	tr := NewTracer(7, 4, clk.now)
	for i := 0; i < 10; i++ {
		sp := tr.StartRoot("r", "s")
		clk.advance(time.Second)
		sp.End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	c := tr.Counts()
	if c.Traces != 10 || c.Spans != 10 || c.Retained != 4 || c.Evicted != 6 {
		t.Fatalf("counts = %+v", c)
	}
	// The ring keeps the most recent spans.
	if !spans[len(spans)-1].Start.After(spans[0].Start) {
		t.Fatalf("spans out of order")
	}
}

func TestSlowOpLog(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	tr := NewTracer(7, 16, clk.now)
	tr.SetSlowThreshold(100 * time.Millisecond)
	fast := tr.StartRoot("fast", "s")
	clk.advance(10 * time.Millisecond)
	fast.End()
	slow := tr.StartRoot("slow", "s")
	clk.advance(200 * time.Millisecond)
	slow.EndStatus("")
	ops := tr.SlowOps()
	if len(ops) != 1 || ops[0].Name != "slow" {
		t.Fatalf("slow ops = %+v", ops)
	}
	if tr.Counts().SlowSpans != 1 {
		t.Fatalf("slow count = %d", tr.Counts().SlowSpans)
	}
}

func TestEventRecordsInstantSpan(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	tr := NewTracer(3, 8, clk.now)
	root := tr.StartRoot("r", "a")
	tr.Event("frame.drop", "a", root.Context(), "drop", Attr{Key: "interceptor", Value: "chaos"})
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	var ev *Span
	for i := range spans {
		if spans[i].Name == "frame.drop" {
			ev = &spans[i]
		}
	}
	if ev == nil || ev.Status != "drop" || ev.Duration() != 0 || ev.Parent == 0 {
		t.Fatalf("event span = %+v", ev)
	}
}

func TestObjectTraces(t *testing.T) {
	var nilTable *ObjectTraces
	nilTable.Tag("x", wire.TraceContext{TraceID: 1, SpanID: 1})
	if _, ok := nilTable.Lookup("x"); ok {
		t.Fatalf("nil table hit")
	}

	o := NewObjectTraces(2)
	o.Tag("a", wire.TraceContext{TraceID: 1, SpanID: 1})
	o.Tag("b", wire.TraceContext{TraceID: 2, SpanID: 2})
	o.Tag("a", wire.TraceContext{TraceID: 3, SpanID: 3}) // retag, no new slot
	o.Tag("c", wire.TraceContext{TraceID: 4, SpanID: 4}) // evicts a (FIFO)
	if _, ok := o.Lookup("a"); ok {
		t.Fatalf("a should have been evicted")
	}
	if tc, ok := o.Lookup("b"); !ok || tc.TraceID != 2 {
		t.Fatalf("b = %+v ok=%v", tc, ok)
	}
	o.Tag("d", wire.TraceContext{}) // zero context ignored
	if _, ok := o.Lookup("d"); ok {
		t.Fatalf("zero context was stored")
	}
}

func TestRegistryInstrumentsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("mocca.x.ops", L("site", "a")...).Add(3)
	r.Counter("mocca.x.ops", L("site", "b")...).Inc()

	s := r.Snapshot()
	if got := s.Value("mocca.x.ops", L("site", "a")...); got != 3 {
		t.Fatalf("counter a = %d", got)
	}
	if got := s.Value("mocca.x.ops", L("site", "b")...); got != 1 {
		t.Fatalf("counter b = %d", got)
	}
	if p, ok := s.Get("mocca.x.ops", L("site", "a")...); !ok || p.Kind != KindCounter {
		t.Fatalf("counter point = %+v ok=%v", p, ok)
	}

	// Snapshots are sorted and stable.
	s2 := r.Snapshot()
	for i := range s.Points {
		if s.Points[i].identity() != s2.Points[i].identity() {
			t.Fatalf("snapshot order unstable at %d", i)
		}
	}

	// Same instrument handle on repeat lookup.
	if r.Counter("mocca.x.ops", L("site", "a")...).Value() != 3 {
		t.Fatalf("counter identity lost")
	}
}

func TestRegistryCollectorAndDiff(t *testing.T) {
	r := NewRegistry()
	backing := int64(10)
	r.Register(CollectorFunc(func(emit func(Point)) {
		emit(Point{Name: "mocca.sub.total", Kind: KindCounter, Value: backing})
		emit(Point{Name: "mocca.sub.size", Kind: KindGauge, Value: 5})
	}))
	before := r.Snapshot()
	backing = 25
	after := r.Snapshot()
	d := after.Diff(before)
	if got := d.Value("mocca.sub.total"); got != 15 {
		t.Fatalf("counter delta = %d", got)
	}
	if got := d.Value("mocca.sub.size"); got != 5 {
		t.Fatalf("gauge should keep current value, got %d", got)
	}
}

// TestProjectReadsMetricTags: a Stats field is exported under the name and
// kind its tag declares, beside any other tags it carries; an untagged
// field is not exported.
func TestProjectReadsMetricTags(t *testing.T) {
	type stats struct {
		Rounds   int64 `metric:"rounds"`
		Open     int   `json:"open" metric:"open,gauge"`
		Internal int64
	}
	want := []Point{
		{Name: "mocca.sub.rounds", Labels: L("site", "s0"), Kind: KindCounter, Value: 7},
		{Name: "mocca.sub.open", Labels: L("site", "s0"), Kind: KindGauge, Value: 3},
	}
	var got []Point
	Project(func(p Point) { got = append(got, p) }, "mocca.sub", L("site", "s0"), stats{Rounds: 7, Open: 3, Internal: 9})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Project = %+v, want %+v", got, want)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Register(CollectorFunc(func(func(Point)) {}))
	if s := r.Snapshot(); len(s.Points) != 0 {
		t.Fatalf("nil registry snapshot non-empty")
	}
}

func TestWriteTextExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("mocca.replica.rounds", L("site", "gmd")...).Add(4)
	r.Register(CollectorFunc(func(emit func(Point)) {
		emit(Point{Name: "mocca.rpc.in-flight", Labels: L("site", "gmd", "peer", "upc"), Kind: KindGauge, Value: 2})
	}))
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE mocca_replica_rounds counter",
		`mocca_replica_rounds{site="gmd"} 4`,
		"# TYPE mocca_rpc_in_flight gauge",
		`mocca_rpc_in_flight{peer="upc",site="gmd"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	clk := &fakeClock{t: time.Unix(100, 0)}
	tr := NewTracer(9, 16, clk.now)
	root := tr.StartRoot("write", "gmd")
	clk.advance(2 * time.Millisecond)
	child := tr.StartChild("apply", "upc", root.Context())
	clk.advance(time.Millisecond)
	child.EndStatus("")
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var complete, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
		case "M":
			meta++
		}
	}
	if complete != 2 || meta != 2 {
		t.Fatalf("events: %d complete, %d metadata (want 2, 2)\n%s", complete, meta, buf.String())
	}
}

func TestTelemetryBundle(t *testing.T) {
	var off *Telemetry
	if off.On() {
		t.Fatalf("nil telemetry reported on")
	}
	tel := New(5, time.Now, WithSpanCapacity(8), WithObjectCapacity(4), WithSlowThreshold(time.Second))
	if !tel.On() || tel.Metrics == nil || tel.Objects == nil {
		t.Fatalf("telemetry incomplete: %+v", tel)
	}
	if tel.Tracer.slowThresh != time.Second {
		t.Fatalf("slow threshold not applied")
	}
}

// TestConcurrentUse hammers tracer and registry from many goroutines —
// meaningful under -race.
func TestConcurrentUse(t *testing.T) {
	tr := NewTracer(11, 64, time.Now)
	r := NewRegistry()
	o := NewObjectTraces(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.StartRoot("work", "site")
				child := tr.StartChild("inner", "site", sp.Context())
				o.Tag("obj", child.Context())
				o.Lookup("obj")
				child.End()
				sp.End()
				r.Counter("c", L("g", string(rune('a'+g)))...).Inc()
				r.Counter("shared").Inc()
				if i%50 == 0 {
					tr.Spans()
					tr.Counts()
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Snapshot().Value("c", L("g", "a")...); got != 200 {
		t.Fatalf("counter = %d", got)
	}
	if got := r.Snapshot().Value("shared"); got != 1600 {
		t.Fatalf("a counter every goroutine reached first at once counted %d, want 1600", got)
	}
}
