package observe

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mocca/internal/wire"
)

// Span is one completed unit of traced work: a named interval on the
// simulated clock, attributed to a site (or node address), linked into
// its trace by (TraceID, SpanID, Parent).
type Span struct {
	TraceID uint64 `json:"traceId"`
	SpanID  uint64 `json:"spanId"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Site    string `json:"site,omitempty"`

	Start time.Time `json:"start"`
	End   time.Time `json:"end"`

	// Status is "" for ok; non-empty values ("drop", "timeout", "error:…")
	// mark spans that did not complete normally.
	Status string `json:"status,omitempty"`
	Attrs  []Attr `json:"attrs,omitempty"`
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Context returns the span's wire trace context, for stamping onto
// envelopes or parenting further spans.
func (s *Span) Context() wire.TraceContext {
	return wire.TraceContext{TraceID: s.TraceID, SpanID: s.SpanID, Parent: s.Parent}
}

// Duration is the span's length on the simulated clock.
func (s *Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Tracer records spans into a bounded ring buffer. It runs zero
// goroutines, takes its timestamps from an injected clock (the
// deployment's simulated clock), and allocates ids from a seeded
// sequence so runs are deterministic. A nil *Tracer is valid and makes
// every operation a cheap no-op — that is the "telemetry disabled"
// path.
type Tracer struct {
	now     func() time.Time
	enabled atomic.Bool
	idSeed  uint64
	idSeq   atomic.Uint64

	traces  atomic.Int64
	started atomic.Int64

	mu      sync.Mutex
	ring    []Span // allocated on first record, so disabled tracers stay heap-free
	cap     int
	next    int // ring write cursor
	filled  bool
	dropped int64 // spans overwritten after the ring wrapped

	slowThresh time.Duration
	slow       []Span
}

// Tunables for NewTracer.
const (
	defaultSpanCapacity = 8192
	slowLogCapacity     = 256
)

// NewTracer builds a tracer recording at most capacity completed spans
// (older spans are overwritten once the ring wraps). now supplies
// timestamps — pass the deployment clock's Now. seed makes span/trace
// ids reproducible across runs.
func NewTracer(seed int64, capacity int, now func() time.Time) *Tracer {
	if capacity <= 0 {
		capacity = defaultSpanCapacity
	}
	if now == nil {
		//lint:allow determinism explicit wall-clock fallback for callers outside a simulated deployment; simulated runs always pass the deployment clock
		now = time.Now
	}
	t := &Tracer{
		now:    now,
		idSeed: uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		cap:    capacity,
	}
	t.enabled.Store(true)
	return t
}

// SetEnabled flips span recording. While disabled the tracer behaves
// like a nil tracer: Start* return inactive spans and nothing records.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// SetSlowThreshold arms the slow-op log: any completed span whose
// duration meets or exceeds d is retained (up to a fixed cap) in a
// separate log regardless of ring-buffer wrap. d <= 0 disables it.
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slowThresh = d
	t.mu.Unlock()
}

// On reports whether the tracer is recording. Callers use it to skip
// building span names on the disabled path.
func (t *Tracer) On() bool { return t != nil && t.enabled.Load() }

// nextID allocates the next id in the seeded sequence, mixed so ids
// look unique-ish in exports but remain a pure function of (seed, seq).
func (t *Tracer) nextID() uint64 {
	z := t.idSeed + t.idSeq.Add(1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// ActiveSpan is an in-flight span. The zero ActiveSpan is inactive:
// every method is a no-op, so untraced and telemetry-disabled paths
// cost a nil check and nothing else.
type ActiveSpan struct {
	t    *Tracer
	span Span
}

// StartRoot opens a new trace with a root span.
func (t *Tracer) StartRoot(name, site string) ActiveSpan {
	if !t.On() {
		return ActiveSpan{}
	}
	id := t.nextID()
	t.traces.Add(1)
	t.started.Add(1)
	return ActiveSpan{t: t, span: Span{
		TraceID: id,
		SpanID:  id,
		Name:    name,
		Site:    site,
		Start:   t.now(),
	}}
}

// StartChild opens a span under parent. A zero parent context yields an
// inactive span: work outside any trace records nothing.
func (t *Tracer) StartChild(name, site string, parent wire.TraceContext) ActiveSpan {
	if !t.On() || parent.IsZero() {
		return ActiveSpan{}
	}
	t.started.Add(1)
	return ActiveSpan{t: t, span: Span{
		TraceID: parent.TraceID,
		SpanID:  t.nextID(),
		Parent:  parent.SpanID,
		Name:    name,
		Site:    site,
		Start:   t.now(),
	}}
}

// Event records an instantaneous child span (start == end) under
// parent — used for point-in-time hops like a frame crossing the
// channel stack.
func (t *Tracer) Event(name, site string, parent wire.TraceContext, status string, attrs ...Attr) {
	if !t.On() || parent.IsZero() {
		return
	}
	t.started.Add(1)
	now := t.now()
	t.record(Span{
		TraceID: parent.TraceID,
		SpanID:  t.nextID(),
		Parent:  parent.SpanID,
		Name:    name,
		Site:    site,
		Start:   now,
		End:     now,
		Status:  status,
		Attrs:   attrs,
	})
}

// Active reports whether the span is recording.
func (s *ActiveSpan) Active() bool { return s.t != nil }

// Context returns the span's trace context for propagation. Inactive
// spans return the zero context, which downstream treats as untraced.
func (s *ActiveSpan) Context() wire.TraceContext {
	if s.t == nil {
		return wire.TraceContext{}
	}
	return s.span.Context()
}

// SetAttr annotates the span.
func (s *ActiveSpan) SetAttr(k, v string) {
	if s.t != nil {
		s.span.Attrs = append(s.span.Attrs, Attr{Key: k, Value: v})
	}
}

// End completes the span with ok status.
func (s *ActiveSpan) End() { s.EndStatus("") }

// EndStatus completes the span with an explicit status. Ending an
// inactive or already-ended span is a no-op.
func (s *ActiveSpan) EndStatus(status string) {
	t := s.t
	if t == nil {
		return
	}
	s.t = nil
	s.span.End = t.now()
	s.span.Status = status
	t.record(s.span)
}

func (t *Tracer) record(sp Span) {
	t.mu.Lock()
	if t.ring == nil {
		t.ring = make([]Span, t.cap)
	}
	if t.filled {
		t.dropped++
	}
	t.ring[t.next] = sp
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
	if t.slowThresh > 0 && sp.End.Sub(sp.Start) >= t.slowThresh && len(t.slow) < slowLogCapacity {
		t.slow = append(t.slow, sp)
	}
	t.mu.Unlock()
}

// Spans returns the retained spans ordered by start time (ties broken
// by span id so the order is deterministic).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []Span
	if t.filled {
		out = make([]Span, 0, len(t.ring))
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring[:t.next]...)
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// SlowOps returns the slow-op log: spans at or over the configured
// threshold, in completion order.
func (t *Tracer) SlowOps() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.slow...)
}

// TraceCounts summarises tracer volume for reports.
type TraceCounts struct {
	Traces    int64 `json:"traces" metric:"traces"`           // root spans started
	Spans     int64 `json:"spans" metric:"spans"`             // spans started (incl. events)
	Retained  int   `json:"retained" metric:"retained,gauge"` // spans currently in the ring
	Evicted   int64 `json:"evicted" metric:"evicted"`         // spans overwritten after wrap
	SlowSpans int   `json:"slowSpans" metric:"slow_spans"`    // spans in the slow-op log
}

// Counts returns the tracer's volume counters.
func (t *Tracer) Counts() TraceCounts {
	if t == nil {
		return TraceCounts{}
	}
	t.mu.Lock()
	retained := t.next
	if t.filled {
		retained = len(t.ring)
	}
	c := TraceCounts{
		Traces:    t.traces.Load(),
		Spans:     t.started.Load(),
		Retained:  retained,
		Evicted:   t.dropped,
		SlowSpans: len(t.slow),
	}
	t.mu.Unlock()
	return c
}

// ObjectTraces is a bounded table linking object ids to the trace
// context of the last traced operation that touched them. It is how a
// trace survives async gaps — a write tags its object; the WAL commit,
// rumor delivery, and anti-entropy apply that later move the same
// object look the context up and parent their spans under it. A nil
// *ObjectTraces is valid and always misses.
type ObjectTraces struct {
	mu    sync.Mutex
	cap   int
	m     map[string]wire.TraceContext
	order []string // insertion order, for FIFO eviction
}

const defaultObjectCapacity = 4096

// NewObjectTraces builds a tag table bounded to capacity entries.
func NewObjectTraces(capacity int) *ObjectTraces {
	if capacity <= 0 {
		capacity = defaultObjectCapacity
	}
	// No size hint: the map grows with actual traced traffic, so a
	// present-but-disabled plane keeps the heap untouched.
	return &ObjectTraces{cap: capacity, m: make(map[string]wire.TraceContext)}
}

// Tag associates id with tc, replacing any previous context. Zero
// contexts are ignored so untraced writes never evict live tags.
func (o *ObjectTraces) Tag(id string, tc wire.TraceContext) {
	if o == nil || tc.IsZero() {
		return
	}
	o.mu.Lock()
	if _, ok := o.m[id]; !ok {
		if len(o.order) >= o.cap {
			evict := o.order[0]
			o.order = o.order[1:]
			delete(o.m, evict)
		}
		o.order = append(o.order, id)
	}
	o.m[id] = tc
	o.mu.Unlock()
}

// Lookup returns the context tagged for id.
func (o *ObjectTraces) Lookup(id string) (wire.TraceContext, bool) {
	if o == nil {
		return wire.TraceContext{}, false
	}
	o.mu.Lock()
	tc, ok := o.m[id]
	o.mu.Unlock()
	return tc, ok
}
