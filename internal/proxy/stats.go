package proxy

import (
	"time"

	"irs/internal/bloom"
	"irs/internal/obs"
)

// outcome classifies how one validation occurrence was answered. The
// six outcomes partition every request: Validate and ValidateBatch
// count exactly one per occurrence, so at quiescence
//
//	Total == FilterMisses + CacheHits + LedgerQueries +
//	         StaleServed + Unavailable + BreakerFastFails
//
// — the conservation invariant the integration suite checks after
// every batch.
type outcome int

const (
	outFilterMiss outcome = iota
	outCacheHit
	outLedgerQuery
	outStaleServed
	outUnavailable
	outBreakerFastFail
	numOutcomes
)

// outcomeNames are the irs_proxy_outcomes_total{outcome=...} values.
var outcomeNames = [numOutcomes]string{
	"filter_miss", "cache_hit", "ledger_query",
	"stale_served", "unavailable", "breaker_fast_fail",
}

// stats holds the validator's pre-interned instruments. With no shared
// registry (Config.Obs nil) the counters live in a private registry
// and timed stays false, so the hot path pays exactly what the old
// hand-rolled Stats struct did: one atomic add for Total and one for
// the outcome. With Config.Obs set, each outcome also lands in a
// latency histogram, timed through the validator's injected clock so
// frozen-clock runs stay deterministic.
type stats struct {
	timed bool
	clock func() time.Time

	total         *obs.Counter
	outcomes      [numOutcomes]*obs.Counter
	syncs         [3]*obs.Counter // FilterSync answers served: up to date, delta, snapshot
	validateSec   [numOutcomes]*obs.Histogram
	upstreamBatch *obs.Histogram
}

func newStats(reg *obs.Registry, timed bool, clock func() time.Time) stats {
	s := stats{timed: timed, clock: clock}
	s.total = reg.Counter("irs_proxy_validations_total")
	for o := outcome(0); o < numOutcomes; o++ {
		s.outcomes[o] = reg.Counter("irs_proxy_outcomes_total", obs.L("outcome", outcomeNames[o]))
	}
	for i, kind := range []string{"uptodate", "delta", "snapshot"} {
		s.syncs[i] = reg.Counter("irs_proxy_filter_syncs_total", obs.L("kind", kind))
	}
	if timed {
		for o := outcome(0); o < numOutcomes; o++ {
			s.validateSec[o] = reg.Histogram("irs_proxy_validate_seconds", nil, obs.L("outcome", outcomeNames[o]))
		}
		s.upstreamBatch = reg.Histogram("irs_proxy_upstream_seconds", nil, obs.L("kind", "batch"))
	}
	return s
}

// done records one occurrence's outcome; start is the validation start
// (only read when latency is being collected).
func (s *stats) done(o outcome, start time.Time) {
	s.outcomes[o].Inc()
	if s.timed {
		s.validateSec[o].Observe(s.clock().Sub(start).Seconds())
	}
}

// begin returns the validation start time, or the zero time when
// latency collection is off (avoiding the clock call on the seed-cost
// path).
func (s *stats) begin() time.Time {
	if s.timed {
		return s.clock()
	}
	return time.Time{}
}

// served counts one FilterSync answer by its kind.
func (s *stats) served(payload []byte) {
	switch {
	case len(payload) == 0:
		s.syncs[0].Inc()
	case bloom.IsSnapshot(payload):
		s.syncs[2].Inc()
	default:
		s.syncs[1].Inc()
	}
}

// observeUpstream records one upstream round trip.
func (s *stats) observeUpstream(h *obs.Histogram, start time.Time) {
	if s.timed {
		h.Observe(s.clock().Sub(start).Seconds())
	}
}

// StatsSnapshot is a plain-value copy of the outcome counters — the
// view experiment reports and the proxy's /v1/stats serialize. It reads
// through to the obs registry; the old standalone Stats struct is gone.
type StatsSnapshot struct {
	Total            uint64 `json:"total"`
	FilterMisses     uint64 `json:"filter_misses"`
	CacheHits        uint64 `json:"cache_hits"`
	LedgerQueries    uint64 `json:"ledger_queries"`
	StaleServed      uint64 `json:"stale_served"`
	Unavailable      uint64 `json:"unavailable"`
	BreakerFastFails uint64 `json:"breaker_fast_fails"`
}

// Stats returns a snapshot of the counters.
func (v *Validator) Stats() StatsSnapshot {
	return StatsSnapshot{
		Total:            v.st.total.Load(),
		FilterMisses:     v.st.outcomes[outFilterMiss].Load(),
		CacheHits:        v.st.outcomes[outCacheHit].Load(),
		LedgerQueries:    v.st.outcomes[outLedgerQuery].Load(),
		StaleServed:      v.st.outcomes[outStaleServed].Load(),
		Unavailable:      v.st.outcomes[outUnavailable].Load(),
		BreakerFastFails: v.st.outcomes[outBreakerFastFail].Load(),
	}
}

// resetStats zeroes the outcome counters between test phases.
// Histograms are not reset; tests measure them by snapshot delta.
func (v *Validator) resetStats() {
	v.st.total.Store(0)
	for o := outcome(0); o < numOutcomes; o++ {
		v.st.outcomes[o].Store(0)
	}
}

// Registry returns the observability registry the validator's series
// live in (Config.Obs, or the private default).
func (v *Validator) Registry() *obs.Registry { return v.obsReg }
