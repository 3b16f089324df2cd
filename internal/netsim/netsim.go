// Package netsim provides the deterministic network model under the
// browser and proxy experiments.
//
// The paper's latency arguments (§4.3) are about wall-clock interactions
// the test environment cannot reproduce against the real web: ledger
// round trips "under 100ms, as in [12, 26]", page loads from the HTTP
// Archive distribution, and the 250 ms pinterest.com overlap window. The
// experiments therefore run on virtual time: latency distributions
// (Dist) supply reproducible samples from a seeded source. Nothing
// sleeps; a simulated second costs microseconds, so sweeps over
// thousands of page loads are cheap and exactly repeatable.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Dist is a latency distribution.
type Dist interface {
	// Sample draws one latency using the provided source.
	Sample(rng *rand.Rand) time.Duration
	// Mean returns the distribution mean, used in reports.
	Mean() time.Duration
	fmt.Stringer
}

// Fixed is a constant latency.
type Fixed time.Duration

// Sample implements Dist.
func (f Fixed) Sample(*rand.Rand) time.Duration { return time.Duration(f) }

// Mean implements Dist.
func (f Fixed) Mean() time.Duration { return time.Duration(f) }

// String implements fmt.Stringer.
func (f Fixed) String() string { return fmt.Sprintf("fixed(%v)", time.Duration(f)) }

// Uniform is a uniform latency on [Min, Max].
type Uniform struct {
	Min, Max time.Duration
}

// Sample implements Dist.
func (u Uniform) Sample(rng *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(rng.Int63n(int64(u.Max-u.Min)))
}

// Mean implements Dist.
func (u Uniform) Mean() time.Duration { return (u.Min + u.Max) / 2 }

// String implements fmt.Stringer.
func (u Uniform) String() string { return fmt.Sprintf("uniform(%v,%v)", u.Min, u.Max) }

// LogNormal is a heavy-tailed latency with the given median and log-space
// sigma — the conventional model for wide-area RTTs and page resource
// fetches.
type LogNormal struct {
	Median time.Duration
	Sigma  float64
}

// Sample implements Dist.
func (l LogNormal) Sample(rng *rand.Rand) time.Duration {
	mu := math.Log(float64(l.Median))
	v := math.Exp(mu + l.Sigma*rng.NormFloat64())
	return time.Duration(v)
}

// Mean implements Dist. For a lognormal the mean is median·e^{σ²/2}.
func (l LogNormal) Mean() time.Duration {
	return time.Duration(float64(l.Median) * math.Exp(l.Sigma*l.Sigma/2))
}

// String implements fmt.Stringer.
func (l LogNormal) String() string {
	return fmt.Sprintf("lognormal(med=%v,σ=%.2f)", l.Median, l.Sigma)
}

// Quantile returns the q-quantile (0..1) of a duration sample set,
// sorting a copy. Reports use this for the Almanac-style tables.
//
// The estimator is nearest-rank: the smallest sample whose cumulative
// frequency is ≥ q. Floor-truncating the index (the previous behavior)
// understates upper quantiles on small samples — p99 of ten samples
// must be the maximum, not the ninth value.
func Quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	cp := append([]time.Duration(nil), samples...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := int(math.Ceil(q*float64(len(cp)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}
