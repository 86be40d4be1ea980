package observe

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric naming convention: stable dotted names ("mocca.replica.rounds"),
// lower-case, with dimensions carried in labels rather than the name.
// The text exposition rewrites dots to underscores for Prometheus
// compatibility; the dotted form is canonical everywhere else. A counter a
// subsystem already keeps in its Stats struct is named where it is kept,
// by a `metric` tag on the field (see Project); the family prefix is the
// collector's.

// Kind discriminates instrument types.
type Kind string

// Instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Label is one name dimension, e.g. {site, gmd}.
type Label struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// L builds a sorted label set from alternating key/value pairs. Odd
// trailing arguments are dropped.
func L(kv ...string) []Label {
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, Label{Key: kv[i], Value: kv[i+1]})
	}
	sortLabels(out)
	return out
}

func sortLabels(ls []Label) {
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
}

// labelKey canonicalises a label set for map identity. Labels must be
// sorted first.
func labelKey(name string, ls []Label) string {
	if len(ls) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range ls {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// Counter is a monotonically-increasing instrument.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. Negative deltas are ignored.
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instrument.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending; implicit +Inf last
	counts []int64   // len(bounds)+1
	sum    float64
	n      int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Point is one exported sample: an instrument's identity and value at
// snapshot time. For histograms Value is the observation count, Sum the
// total, and Bounds/Buckets the per-bucket breakdown (Buckets is
// non-cumulative; the slice is one longer than Bounds for the overflow
// bucket).
type Point struct {
	Name    string    `json:"name"`
	Labels  []Label   `json:"labels,omitempty"`
	Kind    Kind      `json:"kind"`
	Value   int64     `json:"value"`
	Sum     float64   `json:"sum,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

func (p Point) identity() string { return labelKey(p.Name, p.Labels) }

// Collector projects externally-owned counters (the per-subsystem Stats
// structs) into the registry at snapshot time. Adapters emit gauges and
// counters from a live snapshot of the underlying struct, so values are
// never double-counted: the subsystem remains the single owner.
type Collector interface {
	Collect(emit func(Point))
}

// Project emits one point per field of stats, a Stats struct, that
// declares itself a metric with a struct tag:
//
//	Rounds      int64 `metric:"rounds"`             // counter <prefix>.rounds
//	ScopedTrees int   `metric:"scoped_trees,gauge"` // gauge <prefix>.scoped_trees
//
// so a counter's exported name is written once, on the field that holds
// it, and an untagged field is simply not exported. Collectors call it at
// snapshot time on the snapshot the subsystem's Stats() returned; nothing
// on a hot path reflects. A tag on a field that is not a signed integer
// panics: that is a mistake in the declaration, not in the data.
func Project(emit func(Point), prefix string, labels []Label, stats any) {
	v := reflect.ValueOf(stats)
	for i := 0; i < v.NumField(); i++ {
		tag, ok := v.Type().Field(i).Tag.Lookup("metric")
		if !ok {
			continue
		}
		name, kind, _ := strings.Cut(tag, ",")
		p := Point{Name: prefix + "." + name, Labels: labels, Kind: KindCounter}
		if kind == "gauge" {
			p.Kind = KindGauge
		}
		p.Value = v.Field(i).Int()
		emit(p)
	}
}

// CollectorFunc adapts a function to Collector.
type CollectorFunc func(emit func(Point))

// Collect implements Collector.
func (f CollectorFunc) Collect(emit func(Point)) { f(emit) }

// Registry holds direct instruments and adapter collectors, and
// produces deterministic snapshots. A nil *Registry is valid: every
// lookup returns nil instruments whose methods are no-ops.
type Registry struct {
	mu          sync.Mutex
	instruments map[string]*instrument
	collectors  []Collector
}

type instrument struct {
	name   string
	labels []Label
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{instruments: make(map[string]*instrument)}
}

// Counter returns the counter for (name, labels), creating it on first
// use. Reusing a name with a different kind panics: names are a schema.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	in := r.instrument(name, labels, KindCounter, nil)
	return in.c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	in := r.instrument(name, labels, KindGauge, nil)
	return in.g
}

// Histogram returns the histogram for (name, labels) with the given
// upper bounds (ascending), creating it on first use. Bounds are fixed
// at creation, under the registry's lock, so a concurrent first use or
// Observe never sees them half set; later calls' bounds are ignored and
// may be nil.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.instrument(name, labels, KindHistogram, bounds).h
}

func (r *Registry) instrument(name string, labels []Label, kind Kind, bounds []float64) *instrument {
	ls := append([]Label(nil), labels...)
	sortLabels(ls)
	key := labelKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.instruments[key]; ok {
		if in.kind != kind {
			panic(fmt.Sprintf("observe: instrument %q re-registered as %s (was %s)", key, kind, in.kind))
		}
		return in
	}
	in := &instrument{name: name, labels: ls, kind: kind}
	switch kind {
	case KindCounter:
		in.c = &Counter{}
	case KindGauge:
		in.g = &Gauge{}
	case KindHistogram:
		in.h = &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]int64, len(bounds)+1)}
	}
	r.instruments[key] = in
	return in
}

// Register adds an adapter collector consulted at snapshot time.
func (r *Registry) Register(c Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// Snapshot is a deterministic point-in-time view: points sorted by
// (name, labels), suitable for diffing in tests and for fingerprinted
// reports.
type Snapshot struct {
	Points []Point `json:"points"`
}

// Snapshot gathers direct instruments and all collectors. If two
// sources emit the same (name, labels) identity, later values replace
// earlier ones — collectors own their names, so a clash is a schema bug
// surfaced deterministically rather than summed silently.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	ins := make([]*instrument, 0, len(r.instruments))
	for _, in := range r.instruments {
		ins = append(ins, in)
	}
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	byID := make(map[string]Point, len(ins))
	for _, in := range ins {
		p := Point{Name: in.name, Labels: in.labels, Kind: in.kind}
		switch in.kind {
		case KindCounter:
			p.Value = in.c.Value()
		case KindGauge:
			p.Value = in.g.Value()
		case KindHistogram:
			in.h.mu.Lock()
			p.Value = in.h.n
			p.Sum = in.h.sum
			p.Bounds = append([]float64(nil), in.h.bounds...)
			p.Buckets = append([]int64(nil), in.h.counts...)
			in.h.mu.Unlock()
		}
		byID[p.identity()] = p
	}
	for _, c := range collectors {
		c.Collect(func(p Point) {
			sortLabels(p.Labels)
			if p.Kind == "" {
				p.Kind = KindGauge
			}
			byID[p.identity()] = p
		})
	}
	out := Snapshot{Points: make([]Point, 0, len(byID))}
	for _, p := range byID {
		out.Points = append(out.Points, p)
	}
	sort.Slice(out.Points, func(i, j int) bool {
		return out.Points[i].identity() < out.Points[j].identity()
	})
	return out
}

// Get returns the point for (name, labels) if present.
func (s Snapshot) Get(name string, labels ...Label) (Point, bool) {
	ls := append([]Label(nil), labels...)
	sortLabels(ls)
	want := labelKey(name, ls)
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].identity() >= want })
	if i < len(s.Points) && s.Points[i].identity() == want {
		return s.Points[i], true
	}
	return Point{}, false
}

// Value returns the point's value for (name, labels), or 0 if absent.
func (s Snapshot) Value(name string, labels ...Label) int64 {
	p, _ := s.Get(name, labels...)
	return p.Value
}

// Diff subtracts prev from s: counters and histograms become deltas,
// gauges keep their current value. Points absent from prev pass through
// unchanged; points only in prev are dropped.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	old := make(map[string]Point, len(prev.Points))
	for _, p := range prev.Points {
		old[p.identity()] = p
	}
	out := Snapshot{Points: make([]Point, 0, len(s.Points))}
	for _, p := range s.Points {
		if q, ok := old[p.identity()]; ok && p.Kind != KindGauge {
			p.Value -= q.Value
			p.Sum -= q.Sum
			if len(p.Buckets) == len(q.Buckets) {
				p.Buckets = append([]int64(nil), p.Buckets...)
				for i := range p.Buckets {
					p.Buckets[i] -= q.Buckets[i]
				}
			}
		}
		out.Points = append(out.Points, p)
	}
	return out
}

// WriteText renders the snapshot in the Prometheus text exposition
// format: dotted names flattened to underscores, one # TYPE line per
// family, histogram buckets cumulative with +Inf last.
func (s Snapshot) WriteText(w io.Writer) error {
	typed := make(map[string]bool)
	for _, p := range s.Points {
		flat := strings.Map(func(r rune) rune {
			if r == '.' || r == '-' {
				return '_'
			}
			return r
		}, p.Name)
		if !typed[flat] {
			typed[flat] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", flat, p.Kind); err != nil {
				return err
			}
		}
		switch p.Kind {
		case KindHistogram:
			cum := int64(0)
			for i, b := range p.Buckets {
				cum += b
				le := "+Inf"
				if i < len(p.Bounds) {
					le = fmt.Sprintf("%g", p.Bounds[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", flat, renderLabels(p.Labels, Label{Key: "le", Value: le}), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", flat, renderLabels(p.Labels), p.Sum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", flat, renderLabels(p.Labels), p.Value); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", flat, renderLabels(p.Labels), p.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

func renderLabels(ls []Label, extra ...Label) string {
	if len(ls)+len(extra) == 0 {
		return ""
	}
	all := append(append([]Label(nil), ls...), extra...)
	sortLabels(all)
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}
