package netsim

import (
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
