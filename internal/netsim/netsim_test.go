package netsim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestFixedDist(t *testing.T) {
	d := Fixed(50 * time.Millisecond)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if got := d.Sample(rng); got != 50*time.Millisecond {
			t.Fatalf("sample %v", got)
		}
	}
	if d.Mean() != 50*time.Millisecond {
		t.Error("mean wrong")
	}
}

func TestUniformDist(t *testing.T) {
	d := Uniform{Min: 10 * time.Millisecond, Max: 30 * time.Millisecond}
	rng := rand.New(rand.NewSource(2))
	var sum time.Duration
	const n = 10000
	for i := 0; i < n; i++ {
		s := d.Sample(rng)
		if s < d.Min || s > d.Max {
			t.Fatalf("sample %v outside [%v,%v]", s, d.Min, d.Max)
		}
		sum += s
	}
	mean := sum / n
	if mean < 18*time.Millisecond || mean > 22*time.Millisecond {
		t.Errorf("empirical mean %v, want ~20ms", mean)
	}
	// Degenerate range.
	dg := Uniform{Min: 5 * time.Millisecond, Max: 5 * time.Millisecond}
	if dg.Sample(rng) != 5*time.Millisecond {
		t.Error("degenerate uniform wrong")
	}
}

func TestLogNormalDist(t *testing.T) {
	d := LogNormal{Median: 100 * time.Millisecond, Sigma: 0.5}
	rng := rand.New(rand.NewSource(3))
	samples := make([]time.Duration, 20000)
	for i := range samples {
		samples[i] = d.Sample(rng)
		if samples[i] <= 0 {
			t.Fatalf("nonpositive sample %v", samples[i])
		}
	}
	med := Quantile(samples, 0.5)
	if med < 90*time.Millisecond || med > 110*time.Millisecond {
		t.Errorf("empirical median %v, want ~100ms", med)
	}
	if d.Mean() <= d.Median {
		t.Error("lognormal mean should exceed median")
	}
}

// forever is a RunUntil limit past every event a test schedules.
const forever = time.Duration(math.MaxInt64)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	var end time.Duration
	s.At(30*time.Millisecond, func() { order = append(order, 3); end = s.Now() })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	s.RunUntil(forever)
	if end != 30*time.Millisecond {
		t.Errorf("end time %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order %v", order)
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(10*time.Millisecond, func() { order = append(order, i) })
	}
	s.RunUntil(forever)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	var fired []time.Duration
	s.At(5*time.Millisecond, func() {
		fired = append(fired, s.Now())
		s.After(7*time.Millisecond, func() {
			fired = append(fired, s.Now())
		})
	})
	s.RunUntil(forever)
	if len(fired) != 2 || fired[0] != 5*time.Millisecond || fired[1] != 12*time.Millisecond {
		t.Errorf("fired at %v", fired)
	}
}

func TestSchedulerPastEventRunsNow(t *testing.T) {
	s := NewScheduler(1)
	var at time.Duration = -1
	s.At(10*time.Millisecond, func() {
		s.At(1*time.Millisecond, func() { at = s.Now() }) // in the past
	})
	s.RunUntil(forever)
	if at != 10*time.Millisecond {
		t.Errorf("past event ran at %v, want clamped to 10ms", at)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler(1)
	var count int
	for i := 1; i <= 5; i++ {
		s.At(time.Duration(i)*10*time.Millisecond, func() { count++ })
	}
	s.RunUntil(25 * time.Millisecond)
	if count != 2 {
		t.Errorf("ran %d events, want 2", count)
	}
	if s.Pending() != 3 {
		t.Errorf("pending %d, want 3", s.Pending())
	}
	if s.Now() != 25*time.Millisecond {
		t.Errorf("now = %v", s.Now())
	}
	s.RunUntil(forever)
	if count != 5 {
		t.Errorf("total %d", count)
	}
}

func TestLinkUnlimited(t *testing.T) {
	s := NewScheduler(1)
	l := NewLink(s, Fixed(10*time.Millisecond), 0)
	var done int
	var end time.Duration
	for i := 0; i < 10; i++ {
		l.Request(func() { done++; end = s.Now() })
	}
	s.RunUntil(forever)
	if done != 10 {
		t.Errorf("done %d", done)
	}
	// All in parallel: total time = one RTT.
	if end != 10*time.Millisecond {
		t.Errorf("end %v, want 10ms", end)
	}
	if l.Requests != 10 {
		t.Errorf("requests %d", l.Requests)
	}
}

func TestLinkConcurrencyLimit(t *testing.T) {
	s := NewScheduler(1)
	l := NewLink(s, Fixed(10*time.Millisecond), 2)
	var done int
	var end time.Duration
	for i := 0; i < 6; i++ {
		l.Request(func() { done++; end = s.Now() })
	}
	s.RunUntil(forever)
	if done != 6 {
		t.Errorf("done %d", done)
	}
	// 6 requests, 2 at a time, 10ms each → 30ms.
	if end != 30*time.Millisecond {
		t.Errorf("end %v, want 30ms", end)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() time.Duration {
		s := NewScheduler(42)
		l := NewLink(s, LogNormal{Median: 20 * time.Millisecond, Sigma: 0.6}, 4)
		var end time.Duration
		for i := 0; i < 50; i++ {
			l.Request(func() { end = s.Now() })
		}
		s.RunUntil(forever)
		return end
	}
	if run() != run() {
		t.Error("identical seeds produced different schedules")
	}
}

func TestQuantile(t *testing.T) {
	samples := []time.Duration{5, 1, 4, 2, 3}
	if q := Quantile(samples, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(samples, 1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(samples, 0.5); q != 3 {
		t.Errorf("q0.5 = %v", q)
	}
	if q := Quantile(nil, 0.5); q != 0 {
		t.Errorf("empty = %v", q)
	}
	// Quantile must not mutate input.
	if samples[0] != 5 {
		t.Error("Quantile sorted the caller's slice")
	}
}

// TestQuantileNearestRank pins the nearest-rank estimator on small
// samples. The old floor-truncated index understated upper quantiles:
// p95/p99 of ten samples returned the 9th value instead of the maximum.
func TestQuantileNearestRank(t *testing.T) {
	ten := make([]time.Duration, 10)
	for i := range ten {
		ten[i] = time.Duration(i+1) * time.Millisecond
	}
	if q := Quantile(ten, 0.95); q != 10*time.Millisecond {
		t.Errorf("p95 of 10 samples = %v, want 10ms (nearest rank)", q)
	}
	if q := Quantile(ten, 0.99); q != 10*time.Millisecond {
		t.Errorf("p99 of 10 samples = %v, want 10ms (nearest rank)", q)
	}
	if q := Quantile(ten, 0.90); q != 9*time.Millisecond {
		t.Errorf("p90 of 10 samples = %v, want 9ms", q)
	}
	// Ranks that land exactly on a sample boundary stay put.
	if q := Quantile(ten, 0.5); q != 5*time.Millisecond {
		t.Errorf("p50 of 10 samples = %v, want 5ms", q)
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewScheduler(1)
		for j := 0; j < 1000; j++ {
			s.After(time.Duration(j)*time.Microsecond, func() {})
		}
		s.RunUntil(forever)
	}
}
