// Package obs is the IRS observability layer: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms).
//
// Design constraints, in order:
//
//   - Zero allocation on the hot path. Instruments are interned once at
//     setup time (Registry.Counter/Gauge/Histogram return the same
//     pointer for the same name+labels) and the serving code holds the
//     pointer; an increment is one atomic add, an Observe is one binary
//     search over a small fixed bucket array plus two atomic adds.
//   - No third-party dependencies. The exposition format is Prometheus
//     text (prom.go) written with the stdlib only, so any scraper —
//     or curl — can read it; the repo's north star is a self-contained
//     production system, and a metrics dependency would be the first
//     external one.
//   - Deterministic under test. Snapshots and the Prometheus text are
//     emitted in sorted series order, and the one time-dependent piece,
//     a histogram observation made through an injected clock, is a pure
//     function of that clock — the proxy's outage tests replay a seeded
//     run twice and byte-compare the rendered registry.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Series are interned per unique
// name+label-set at registration time; the hot path never touches
// label strings again.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter. Store exists for
// experiment-phase resets (the registry is also the substrate for
// Stats-style snapshots, which experiments zero between phases);
// exported Prometheus series should only ever Add.
type Counter struct{ v atomic.Uint64 }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Store overwrites the value (experiment-phase reset).
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// kind discriminates the three instrument families.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// String implements fmt.Stringer (also the Prometheus TYPE word).
func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one interned name+labels instrument.
type series struct {
	labels []Label
	key    string // serialized sorted labels, the intern key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series sharing a metric name; the exposition
// emits exactly one # TYPE line per family.
type family struct {
	name   string
	kind   kind
	series map[string]*series
	order  []*series // sorted by label key lazily at snapshot time
}

// Registry holds metric families. Registration takes a lock and
// allocates; reads of registered instruments are lock-free. The zero
// value is not usable — construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter interns and returns the counter series name{labels...}.
// Repeated calls with the same name and labels return the same
// *Counter. Registering an existing name as a different kind panics:
// that is a programming error, caught at setup time.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	s := r.intern(name, kindCounter, nil, labels)
	return s.c
}

// Gauge interns and returns the gauge series name{labels...}.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	s := r.intern(name, kindGauge, nil, labels)
	return s.g
}

// Histogram interns and returns the histogram series name{labels...}
// with the given bucket upper bounds (nil or empty means
// DefLatencyBuckets; non-finite bounds are dropped, the rest sorted
// and deduplicated). Bounds are fixed by the first registration of the
// family.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	s := r.intern(name, kindHistogram, bounds, labels)
	return s.h
}

// intern is the registration core.
func (r *Registry) intern(name string, k kind, bounds []float64, labels []Label) *series {
	name = SanitizeName(name)
	labels = cleanLabels(labels)
	if k == kindHistogram {
		// "le" is the bucket-bound label; a user label with that key
		// would collide with it on every _bucket line.
		kept := labels[:0]
		for _, l := range labels {
			if l.Key != "le" {
				kept = append(kept, l)
			}
		}
		labels = kept
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: k, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != k {
		panic("obs: metric " + name + " registered as both " + f.kind.String() + " and " + k.String())
	}
	s, ok := f.series[key]
	if ok {
		return s
	}
	s = &series{labels: labels, key: key}
	switch k {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	default:
		s.h = newHistogram(bounds)
	}
	f.series[key] = s
	f.order = append(f.order, s)
	return s
}

// cleanLabels sanitizes keys, sorts by key, and drops duplicate keys
// (first occurrence in sorted order wins), so a label set has exactly
// one canonical serialization.
func cleanLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, 0, len(labels))
	for _, l := range labels {
		out = append(out, Label{Key: SanitizeName(l.Key), Value: l.Value})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	dedup := out[:1]
	for _, l := range out[1:] {
		if l.Key != dedup[len(dedup)-1].Key {
			dedup = append(dedup, l)
		}
	}
	return dedup
}

// labelKey serializes a cleaned label set into the intern key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte(',')
	}
	return sb.String()
}

// SanitizeName maps an arbitrary string onto the Prometheus metric
// name alphabet [a-zA-Z0-9_:] with a non-digit first character.
// Sanitizing at registration (rather than exposition) means two
// spellings that collide become one series instead of two series with
// one name — the exposition can never emit duplicates.
func SanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9')
		if c >= '0' && c <= '9' && i == 0 {
			sb.WriteByte('_') // digit may not lead; keep it, prefixed
		}
		if ok {
			sb.WriteByte(c)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// SeriesSnapshot is one series' point-in-time value, JSON-marshalable
// for bench reports.
type SeriesSnapshot struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Labels []Label `json:"labels,omitempty"`
	// Value carries counter and gauge readings.
	Value float64 `json:"value"`
	// Histogram summary (Count/Sum plus the three serving quantiles).
	Count uint64  `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// Snapshot returns every series' current value, sorted by family name
// then label key — a deterministic ordering, so two registries with
// identical contents snapshot identically.
func (r *Registry) Snapshot() []SeriesSnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })
	var out []SeriesSnapshot
	for _, f := range fams {
		for _, s := range f.sorted() {
			ss := SeriesSnapshot{Name: f.name, Kind: f.kind.String(), Labels: s.labels}
			switch f.kind {
			case kindCounter:
				ss.Value = float64(s.c.Load())
			case kindGauge:
				ss.Value = float64(s.g.Load())
			default:
				h := s.h.Snapshot()
				ss.Count = h.Count
				ss.Sum = h.Sum
				ss.P50 = h.Quantile(0.50)
				ss.P95 = h.Quantile(0.95)
				ss.P99 = h.Quantile(0.99)
			}
			out = append(out, ss)
		}
	}
	return out
}

// sorted returns the family's series ordered by label key. The sort is
// recomputed per call; families are small and snapshots are off the
// hot path.
func (f *family) sorted() []*series {
	out := append([]*series(nil), f.order...)
	sort.Slice(out, func(a, b int) bool { return out[a].key < out[b].key })
	return out
}

// Value finds a counter or gauge reading in a snapshot; tests read one
// series with it.
func Value(snap []SeriesSnapshot, name string, labels ...Label) (float64, bool) {
	name = SanitizeName(name)
	want := labelKey(cleanLabels(labels))
	for _, s := range snap {
		if s.Name == name && labelKey(s.Labels) == want {
			return s.Value, true
		}
	}
	return 0, false
}
