// Package observe is the deployment-wide telemetry plane: causal
// tracing across rpc hops and a typed metrics registry with export.
//
// The tracing half carries a compact context (trace id, span id, parent
// span) in the wire envelope across every hop and through async
// continuations, so one trace stitches together a write at site A, the
// placement forward, the WAL commit, rumor mongering, the
// replica digest negotiation, and the delta apply at site B. Spans are
// recorded on the simulated clock into a bounded ring buffer — zero
// goroutines, ids from a seeded sequence, and a nil tracer (telemetry
// off) costs a pointer check per call site.
//
// The metrics half is a registry of typed counters, gauges and
// histograms under stable dotted names with labels. Subsystems keep
// their existing Stats structs as the single source of truth; adapter
// collectors project those snapshots into the registry at scrape time,
// so nothing is double-counted. Snapshots are deterministically sorted
// for diffing in tests and fingerprinted reports, and render in the
// Prometheus text exposition format.
package observe

import "time"

// Telemetry bundles one deployment's tracer, registry, and object-trace
// tag table. A nil *Telemetry means telemetry is disabled; all three
// components degrade the same way.
type Telemetry struct {
	Tracer  *Tracer
	Metrics *Registry
	Objects *ObjectTraces
}

// Option configures New.
type Option func(*config)

type config struct {
	spanCapacity   int
	objectCapacity int
	slowThreshold  time.Duration
}

// WithSpanCapacity bounds the span ring buffer (default 8192).
func WithSpanCapacity(n int) Option { return func(c *config) { c.spanCapacity = n } }

// WithObjectCapacity bounds the object-trace tag table (default 4096).
func WithObjectCapacity(n int) Option { return func(c *config) { c.objectCapacity = n } }

// WithSlowThreshold arms the slow-op log: completed spans at or over d
// are retained separately from the ring buffer.
func WithSlowThreshold(d time.Duration) Option { return func(c *config) { c.slowThreshold = d } }

// New builds a telemetry plane. now supplies span timestamps — pass the
// deployment clock's Now so traces land on simulated time.
func New(seed int64, now func() time.Time, opts ...Option) *Telemetry {
	var c config
	for _, o := range opts {
		o(&c)
	}
	t := &Telemetry{
		Tracer:  NewTracer(seed, c.spanCapacity, now),
		Metrics: NewRegistry(),
		Objects: NewObjectTraces(c.objectCapacity),
	}
	if c.slowThreshold > 0 {
		t.Tracer.SetSlowThreshold(c.slowThreshold)
	}
	return t
}

// On reports whether tracing is live — nil-safe, so call sites can skip
// building span names when telemetry is off.
func (t *Telemetry) On() bool { return t != nil && t.Tracer.On() }
