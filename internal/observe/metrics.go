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

// Instrument kinds: a registry's own instruments are counters; a collector
// emits either.
const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
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

// Point is one exported sample: an instrument's identity and value at
// snapshot time.
type Point struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Kind   Kind    `json:"kind"`
	Value  int64   `json:"value"`
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
//	ActiveSize  int   `metric:"active_view,gauge"`  // gauge <prefix>.active_view
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

// Registry holds direct counters and adapter collectors, and produces
// deterministic snapshots. A nil *Registry is valid: every lookup returns
// a nil counter whose methods are no-ops.
type Registry struct {
	mu          sync.Mutex
	instruments map[string]*instrument
	collectors  []Collector
}

type instrument struct {
	name   string
	labels []Label
	c      *Counter
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{instruments: make(map[string]*instrument)}
}

// Counter returns the counter for (name, labels), creating it on first
// use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	ls := append([]Label(nil), labels...)
	sortLabels(ls)
	key := labelKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := r.instruments[key]
	if !ok {
		in = &instrument{name: name, labels: ls, c: &Counter{}}
		r.instruments[key] = in
	}
	return in.c
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
		p := Point{Name: in.name, Labels: in.labels, Kind: KindCounter, Value: in.c.Value()}
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

// Diff subtracts prev from s: counters become deltas, gauges keep their
// current value. Points absent from prev pass through unchanged; points
// only in prev are dropped.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	old := make(map[string]Point, len(prev.Points))
	for _, p := range prev.Points {
		old[p.identity()] = p
	}
	out := Snapshot{Points: make([]Point, 0, len(s.Points))}
	for _, p := range s.Points {
		if q, ok := old[p.identity()]; ok && p.Kind != KindGauge {
			p.Value -= q.Value
		}
		out.Points = append(out.Points, p)
	}
	return out
}

// WriteText renders the snapshot in the Prometheus text exposition
// format: dotted names flattened to underscores, one # TYPE line per
// family.
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
		if _, err := fmt.Fprintf(w, "%s%s %d\n", flat, renderLabels(p.Labels), p.Value); err != nil {
			return err
		}
	}
	return nil
}

func renderLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	sorted := append([]Label(nil), ls...)
	sortLabels(sorted)
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}
