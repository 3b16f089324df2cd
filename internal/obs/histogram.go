package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefLatencyBuckets is the default bucket ladder for request-latency
// histograms, in seconds: 50µs to 10s, roughly ×2.5 per step. The
// serving path's interesting band (loopback HTTP round trips, hundreds
// of µs to a few ms) gets the densest coverage.
var DefLatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25,
	0.5, 1, 2.5, 10,
}

// Histogram is a fixed-bucket histogram. Observe is wait-free apart
// from one CAS loop maintaining the float64 sum; bucket boundaries are
// immutable after construction, so there is no resizing and no lock.
type Histogram struct {
	bounds  []float64 // strictly increasing, finite; +Inf is implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// newHistogram builds a histogram over the given upper bounds,
// dropping non-finite values, sorting, and deduplicating. Empty (after
// cleaning) means DefLatencyBuckets.
func newHistogram(bounds []float64) *Histogram {
	clean := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsNaN(b) && !math.IsInf(b, 0) {
			clean = append(clean, b)
		}
	}
	sort.Float64s(clean)
	n := 0
	for i, b := range clean {
		if i == 0 || b != clean[n-1] {
			clean[n] = b
			n++
		}
	}
	clean = clean[:n]
	if len(clean) == 0 {
		clean = DefLatencyBuckets
	}
	return &Histogram{
		bounds: append([]float64(nil), clean...),
		counts: make([]atomic.Uint64, len(clean)+1),
	}
}

// Observe records one value. Any float64 is accepted: NaN and +Inf
// land in the overflow bucket (every le comparison fails), -Inf in the
// first; the fuzz harness feeds arbitrary bit patterns through here.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v — the Prometheus
	// cumulative "le" bucket v belongs to. NaN fails every comparison
	// and falls through to the +Inf overflow slot.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// HistSnapshot is a point-in-time histogram copy.
type HistSnapshot struct {
	// Bounds are the finite bucket upper bounds; Counts has one extra
	// trailing element, the +Inf overflow bucket. Counts are per bucket
	// (not cumulative).
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the current bucket counts. Buckets are read one
// atomic load at a time, so a snapshot racing observations may be off
// by in-flight increments; Count is read first and therefore never
// exceeds the bucket sum by more than the in-flight window.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the p-quantile (0 < p <= 1) from the bucket
// counts: the upper bound of the bucket containing the nearest-rank
// observation (the same ceil convention as netsim.Quantile). Overflow
// observations report the largest finite bound. Returns 0 for an empty
// histogram. Estimates are monotone in p by construction.
func (s HistSnapshot) Quantile(p float64) float64 {
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}
