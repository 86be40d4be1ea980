package mocca

import (
	"io"

	"mocca/internal/information/logstore"
	"mocca/internal/observe"
)

// WithTelemetry turns on the deployment's unified telemetry plane: one
// seeded tracer + metrics registry + object-trace tag table shared by
// every subsystem. With it enabled,
//
//   - every rpc hop records client and serve spans linked by the trace
//     context the wire envelope carries (version-2 frames; peers without
//     telemetry interop unchanged on version-1 frames),
//   - each local put/update starts a root trace tagged to the object id,
//     which the placement forward, the holder's WAL commit, the gossip
//     rumor path and the anti-entropy apply at remote sites all continue
//     — one trace id follows the write across sites,
//   - the registry projects the existing per-subsystem Stats snapshots
//     as labelled metric families (see the adapter collector below) and
//     serves snapshots via Deployment.Metrics().
//
// Everything rides the simulated clock and the deployment seed, so runs
// stay deterministic; without this option no telemetry state exists and
// every envelope stays byte-identical to the untraced format. opts tune
// span-ring capacity, object-table capacity and the slow-op threshold.
func WithTelemetry(opts ...observe.Option) Option {
	return func(d *Deployment) {
		d.telemetry = true
		d.telOpts = opts
	}
}

// Telemetry returns the deployment's telemetry plane, or nil when
// WithTelemetry was not given. The result is safe to pass to subsystem
// constructors even when nil.
func (d *Deployment) Telemetry() *observe.Telemetry { return d.tel }

// Metrics returns the deployment's metrics registry (nil without
// WithTelemetry — and a nil registry is safe to snapshot: it yields an
// empty snapshot).
func (d *Deployment) Metrics() *observe.Registry {
	if d.tel == nil {
		return nil
	}
	return d.tel.Metrics
}

// Traces returns every retained span in chronological order (nil
// without WithTelemetry).
func (d *Deployment) Traces() []observe.Span {
	if d.tel == nil {
		return nil
	}
	return d.tel.Tracer.Spans()
}

// SlowOps returns the retained slow-span log (spans whose duration met
// the observe.WithSlowThreshold bound), oldest first.
func (d *Deployment) SlowOps() []observe.Span {
	if d.tel == nil {
		return nil
	}
	return d.tel.Tracer.SlowOps()
}

// WriteTrace writes the retained spans as Chrome trace-event JSON
// (load it at chrome://tracing or https://ui.perfetto.dev). Sites
// render as threads, spans as complete events.
func (d *Deployment) WriteTrace(w io.Writer) error {
	if d.tel == nil {
		return observe.WriteChromeTrace(w, nil)
	}
	return observe.WriteChromeTrace(w, d.tel.Tracer.Spans())
}

// registerCollectors installs the adapter collector that projects the
// deployment's existing Stats snapshots into the metrics registry. It is
// a pull-model adapter: nothing is recorded twice — each snapshot reads
// the same counters the subsystems already maintain, at Snapshot() time.
//
// Naming scheme: mocca.<subsystem>.<counter>{site="..."} for per-site
// families, label-free for deployment-wide ones. The subsystem prefix is
// given here; the counter's name and kind are declared on the Stats field
// that holds it (see observe.Project).
func (d *Deployment) registerCollectors() {
	d.tel.Metrics.Register(observe.CollectorFunc(func(emit func(observe.Point)) {
		for _, name := range d.SiteNames() {
			s, site := d.sites[name], observe.L("site", name)
			observe.Project(emit, "mocca.sync", site, s.repl.Stats())
			observe.Project(emit, "mocca.placement", site, s.reader.Stats())
			observe.Project(emit, "mocca.placement", site, s.readServer.Stats())
			if s.overlay != nil {
				observe.Project(emit, "mocca.gossip", site, s.overlay.Stats())
			}
			if ls, ok := d.backends[name].(storeStatser); ok {
				observe.Project(emit, "mocca.store", site, ls.Stats())
			}
			observe.Project(emit, "mocca.rpc", site, s.replEP.Stats())
		}
		observe.Project(emit, "mocca.net", nil, d.net.Stats())
		observe.Project(emit, "mocca.channels", nil, d.fabric.Totals())
		observe.Project(emit, "mocca.trace", nil, d.tel.Tracer.Counts())
	}))
}

// storeStatser is the slice of *logstore.Store the collector needs; the
// interface keeps the adapter working for any backend that exposes the
// same counters.
type storeStatser interface {
	Stats() logstore.Stats
}
