package browser

import (
	"math"
	"math/rand"
	"time"

	"irs/internal/netsim"
)

// Almanac site population.
//
// §4.3 grounds the "checks are cheap relative to page loads" argument in
// the HTTP Archive Web Almanac: a site that fully renders under 1.8 s
// has "good performance", and "over 60% of studied sites take over
// 2.5 s". The archive itself is not available offline, so
// GenerateAlmanac synthesizes a population whose baseline full-render
// distribution matches those two quantile facts — the only properties
// the paper's argument consumes. E3 prints the calibration in its
// output and the tests pin it within tolerance.

// AlmanacSlowThreshold is the 2.5 s mark that over 60% of the sites
// in the paper's citation [5] exceed.
const AlmanacSlowThreshold = 2500 * time.Millisecond

// AlmanacSite is one generated site: its pre-sampled plan plus the
// per-site speed multiplier used, for diagnostics.
type AlmanacSite struct {
	Plan  PagePlan
	Scale float64
}

// GenerateAlmanac draws n sites. labeledFraction sets how many images
// carry IRS labels (bootstrap-phase adoption is partial); check is the
// revocation check latency distribution.
func GenerateAlmanac(n int, seed int64, labeledFraction float64, check netsim.Dist) []AlmanacSite {
	rng := rand.New(rand.NewSource(seed))
	sites := make([]AlmanacSite, n)
	for i := range sites {
		// Per-site speed multiplier: some sites are CDN-fronted, some
		// are slow origin-served pages. A lognormal multiplier keeps the
		// heavy slow tail the archive shows.
		mult := math.Exp(0.45 * rng.NormFloat64())
		spec := PageSpec{
			NImagesMin:      5,
			NImagesMax:      40,
			HTML:            netsim.LogNormal{Median: scaleDur(500*time.Millisecond, mult), Sigma: 0.4},
			ImageFetch:      netsim.LogNormal{Median: scaleDur(700*time.Millisecond, mult), Sigma: 0.5},
			MetaDelay:       netsim.Fixed(40 * time.Millisecond),
			Check:           check,
			LabeledFraction: labeledFraction,
		}
		sites[i] = AlmanacSite{Plan: spec.Sample(rng), Scale: mult}
	}
	return sites
}

func scaleDur(d time.Duration, mult float64) time.Duration {
	return time.Duration(float64(d) * mult)
}
