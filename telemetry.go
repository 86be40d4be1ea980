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
// families, label-free for deployment-wide ones. All families are
// counters unless noted as gauges (sizes that can shrink).
func (d *Deployment) registerCollectors() {
	ctr := func(name, site string, v int64) observe.Point {
		p := observe.Point{Name: name, Kind: observe.KindCounter, Value: v}
		if site != "" {
			p.Labels = observe.L("site", site)
		}
		return p
	}
	gauge := func(name, site string, v int64) observe.Point {
		p := ctr(name, site, v)
		p.Kind = observe.KindGauge
		return p
	}
	d.tel.Metrics.Register(observe.CollectorFunc(func(emit func(observe.Point)) {
		for _, name := range d.SiteNames() {
			s := d.sites[name]

			rs := s.repl.Stats()
			emit(ctr("mocca.sync.rounds", name, rs.Rounds))
			emit(ctr("mocca.sync.peer_syncs", name, rs.PeerSyncs))
			emit(ctr("mocca.sync.peer_failures", name, rs.PeerFailures))
			emit(ctr("mocca.sync.applied", name, rs.Applied))
			emit(ctr("mocca.sync.pushed", name, rs.Pushed))
			emit(ctr("mocca.sync.conflicts", name, rs.Conflicts))
			emit(ctr("mocca.sync.served_digests", name, rs.ServedDigests))
			emit(ctr("mocca.sync.digest_bytes", name, rs.DigestBytes))
			emit(ctr("mocca.sync.merkle_exchanges", name, rs.MerkleExchanges))
			emit(ctr("mocca.sync.converged_roots", name, rs.ConvergedRoots))
			emit(ctr("mocca.sync.hw_fast_deltas", name, rs.HWFastDeltas))
			emit(ctr("mocca.sync.descent_calls", name, rs.DescentCalls))
			emit(ctr("mocca.sync.deltas_served", name, rs.DeltasServed))
			emit(gauge("mocca.sync.scoped_trees", name, int64(rs.ScopedTrees)))

			rds := s.reader.Stats()
			emit(ctr("mocca.placement.reads", name, rds.Reads))
			emit(ctr("mocca.placement.reads_served", name, rds.Served))
			emit(ctr("mocca.placement.read_attempts", name, rds.Attempts))
			emit(ctr("mocca.placement.no_holder", name, rds.NoHolder))
			emit(ctr("mocca.placement.negative_hits", name, rds.NegativeHits))
			emit(ctr("mocca.placement.forwards", name, rds.Forwards))
			emit(ctr("mocca.placement.forwarded", name, rds.Forwarded))

			svs := s.readServer.Stats()
			emit(ctr("mocca.placement.remote_reads_served", name, svs.Served))
			emit(ctr("mocca.placement.remote_reads_missed", name, svs.Missed))
			emit(ctr("mocca.placement.writes_accepted", name, svs.WritesAccepted))
			emit(ctr("mocca.placement.writes_refused", name, svs.WritesRefused))

			if s.overlay != nil {
				gs := s.overlay.Stats()
				emit(ctr("mocca.gossip.rounds", name, gs.Rounds))
				emit(ctr("mocca.gossip.rumors_published", name, gs.RumorsPublished))
				emit(ctr("mocca.gossip.rumors_forwarded", name, gs.RumorsForwarded))
				emit(ctr("mocca.gossip.rumors_seen", name, gs.RumorsSeen))
				emit(ctr("mocca.gossip.rumor_fetches", name, gs.RumorFetches))
				emit(ctr("mocca.gossip.rumor_applied", name, gs.RumorApplied))
				emit(gauge("mocca.gossip.active_view", name, int64(gs.ActiveSize)))
				emit(gauge("mocca.gossip.passive_view", name, int64(gs.PassiveSize)))
			}

			if b, ok := d.backends[name]; ok {
				if ls, ok := b.(storeStatser); ok {
					st := ls.Stats()
					emit(ctr("mocca.store.appends", name, st.Appends))
					emit(ctr("mocca.store.appended_bytes", name, st.AppendedBytes))
					emit(ctr("mocca.store.compactions", name, st.Compactions))
					emit(ctr("mocca.store.fsyncs", name, st.Fsyncs))
					emit(gauge("mocca.store.segments", name, int64(st.Segments)))
				}
			}

			es := s.replEP.Stats()
			emit(ctr("mocca.rpc.calls_sent", name, es.CallsSent))
			emit(ctr("mocca.rpc.calls_served", name, es.CallsServed))
			emit(ctr("mocca.rpc.timeouts", name, es.Timeouts))
			emit(ctr("mocca.rpc.remote_errors", name, es.RemoteErrors))
		}

		ns := d.net.Stats()
		emit(ctr("mocca.net.sent", "", ns.Sent))
		emit(ctr("mocca.net.delivered", "", ns.Delivered))
		emit(ctr("mocca.net.dropped", "", ns.Dropped))
		emit(ctr("mocca.net.blocked", "", ns.Blocked))
		emit(ctr("mocca.net.bytes", "", ns.Bytes))

		ft := d.fabric.Totals()
		emit(gauge("mocca.channels.open", "", int64(ft.Channels)))
		emit(ctr("mocca.channels.frames_out", "", ft.FramesOut))
		emit(ctr("mocca.channels.frames_in", "", ft.FramesIn))
		emit(ctr("mocca.channels.bytes_out", "", ft.BytesOut))
		emit(ctr("mocca.channels.bytes_in", "", ft.BytesIn))
		emit(ctr("mocca.channels.discards_in", "", ft.DiscardsIn))

		tc := d.tel.Tracer.Counts()
		emit(ctr("mocca.trace.traces", "", tc.Traces))
		emit(ctr("mocca.trace.spans", "", tc.Spans))
		emit(gauge("mocca.trace.retained", "", int64(tc.Retained)))
		emit(ctr("mocca.trace.evicted", "", tc.Evicted))
		emit(ctr("mocca.trace.slow_spans", "", int64(tc.SlowSpans)))
	}))
}

// storeStatser is the slice of *logstore.Store the collector needs; the
// interface keeps the adapter working for any backend that exposes the
// same counters.
type storeStatser interface {
	Stats() logstore.Stats
}
