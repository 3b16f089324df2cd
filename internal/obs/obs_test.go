package obs

import (
	"math"
	"strings"
	"testing"
)

func TestCounterGaugeIntern(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", L("route", "status"))
	b := r.Counter("requests_total", L("route", "status"))
	if a != b {
		t.Fatal("same name+labels interned to two counters")
	}
	c := r.Counter("requests_total", L("route", "claim"))
	if a == c {
		t.Fatal("distinct labels shared a counter")
	}
	a.Add(2)
	a.Inc()
	if a.Load() != 3 || c.Load() != 0 {
		t.Fatalf("counter values %d/%d, want 3/0", a.Load(), c.Load())
	}
	g := r.Gauge("depth")
	g.Set(5)
	g.Set(3)
	if g.Load() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Load())
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", L("b", "2"), L("a", "1"))
	b := r.Counter("m", L("a", "1"), L("b", "2"))
	if a != b {
		t.Fatal("label order produced distinct series")
	}
}

func TestKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("m")
	r.Gauge("m")
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"ok_name":   "ok_name",
		"has space": "has_space",
		"9starts":   "_9starts",
		"":          "_",
		"a:b":       "a:b",
		"höhe":      "h__he", // each invalid byte maps to one underscore
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.001, 0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.0005) // bucket le=0.001
	}
	for i := 0; i < 9; i++ {
		h.Observe(0.05) // bucket le=0.1
	}
	h.Observe(0.5) // bucket le=1
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if got := s.Quantile(0.50); got != 0.001 {
		t.Errorf("p50 = %v, want 0.001", got)
	}
	if got := s.Quantile(0.95); got != 0.1 {
		t.Errorf("p95 = %v, want 0.1", got)
	}
	if got := s.Quantile(1.0); got != 1.0 {
		t.Errorf("p100 = %v, want 1", got)
	}
	// Overflow observations cap at the largest finite bound.
	h.Observe(math.Inf(1))
	if got := h.Snapshot().Quantile(1.0); got != 1.0 {
		t.Errorf("overflow quantile = %v, want capped at 1", got)
	}
}

func TestHistogramBoundsCleaning(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("m", []float64{5, math.NaN(), 1, 5, math.Inf(1)})
	h.Observe(2)
	s := h.Snapshot()
	if len(s.Bounds) != 2 || s.Bounds[0] != 1 || s.Bounds[1] != 5 {
		t.Fatalf("bounds = %v, want [1 5]", s.Bounds)
	}
	if s.Counts[1] != 1 {
		t.Fatalf("counts = %v, want the le=5 bucket hit", s.Counts)
	}
}

func TestPrometheusTextShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", L("route", "a\"b\\c\nd")).Add(7)
	r.Gauge("depth").Set(-2)
	h := r.Histogram("lat", []float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(2)
	text := promText(r)
	for _, want := range []string{
		"# TYPE depth gauge\ndepth -2\n",
		"# TYPE lat histogram\n",
		`lat_bucket{le="0.5"} 1`,
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="+Inf"} 2`,
		"lat_sum 2.2\n",
		"lat_count 2\n",
		`req_total{route="a\"b\\c\nd"} 7`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	if got := strings.Count(text, "# TYPE"); got != 3 {
		t.Errorf("%d TYPE lines, want 3", got)
	}
	// Deterministic: same content renders identically.
	if text != promText(r) {
		t.Error("two renders of an unchanged registry differ")
	}
}

func TestSnapshotSortedAndValueLookup(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz").Add(1)
	r.Counter("aaa", L("x", "2")).Add(2)
	r.Counter("aaa", L("x", "1")).Add(3)
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Name != "aaa" || snap[2].Name != "zzz" {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	if snap[0].Labels[0].Value != "1" {
		t.Fatalf("series order within family wrong: %+v", snap[:2])
	}
	if v, ok := Value(snap, "aaa", L("x", "2")); !ok || v != 2 {
		t.Fatalf("Value lookup = %v/%v", v, ok)
	}
	if _, ok := Value(snap, "missing"); ok {
		t.Fatal("lookup of a missing series succeeded")
	}
}

func TestHistogramUserLeLabelDropped(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", nil, L("le", "evil"), L("k", "v")).Observe(1)
	text := promText(r)
	if strings.Contains(text, `le="evil"`) {
		t.Fatalf("user le label leaked into exposition:\n%s", text)
	}
	if !strings.Contains(text, `k="v"`) {
		t.Fatalf("legitimate label lost:\n%s", text)
	}
}

// promText renders r through WritePrometheus, as /metrics serves it.
func promText(r *Registry) string {
	var sb strings.Builder
	_ = r.WritePrometheus(&sb)
	return sb.String()
}
