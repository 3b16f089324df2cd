package ledger

import (
	"strconv"

	"irs/internal/ids"
	"irs/internal/obs"
)

// metrics holds the ledger's interned obs instruments. The counters
// live in an obs.Registry (shared when Config.Obs is set, private
// otherwise) so the same numbers that experiments read also appear on
// /debug/metrics; the struct itself is just the pre-interned pointers
// the hot paths increment.
type metrics struct {
	claims  *obs.Counter
	ops     *obs.Counter
	queries *obs.Counter
	// signs + memoHits = queries: a proof is either signed or taken from
	// the per-second memo. Both move by one Add per batch. The proof a
	// claim's receipt carries answers no query and moves none of the
	// three; claims counts it.
	signs    *obs.Counter
	memoHits *obs.Counter

	// Storage-engine instruments. walSyncs/walRecords are mirrored from
	// the group-commit WAL's internal atomics at sync/flush/stats time
	// rather than on every append.
	walSyncs    *obs.Counter
	walRecords  *obs.Counter
	flushes     *obs.Counter
	compactions *obs.Counter
	segments    *obs.Gauge
	memtable    *obs.Gauge
}

func newMetrics(reg *obs.Registry, id ids.LedgerID) metrics {
	l := obs.L("ledger", strconv.FormatUint(uint64(id), 10))
	return metrics{
		claims:      reg.Counter("irs_ledger_claims_total", l),
		ops:         reg.Counter("irs_ledger_ops_total", l),
		queries:     reg.Counter("irs_ledger_queries_total", l),
		signs:       reg.Counter("irs_ledger_proof_signs_total", l),
		memoHits:    reg.Counter("irs_ledger_proof_memo_hits_total", l),
		walSyncs:    reg.Counter("irs_ledger_wal_syncs_total", l),
		walRecords:  reg.Counter("irs_ledger_wal_records_total", l),
		flushes:     reg.Counter("irs_ledger_flushes_total", l),
		compactions: reg.Counter("irs_ledger_compactions_total", l),
		segments:    reg.Gauge("irs_ledger_segments", l),
		memtable:    reg.Gauge("irs_ledger_memtable_records", l),
	}
}

// MetricsSnapshot is a plain-value copy of the counters. E2 measures
// the load reduction the proxy/filter stack achieves by taking a
// snapshot before and after a phase and differencing Queries — the
// counters themselves are never reset.
type MetricsSnapshot struct {
	Claims  uint64
	Ops     uint64
	Queries uint64
	// ProofSigns and ProofMemoHits split Queries by whether the proof's
	// signature was computed or found in the per-second memo; the hit
	// rate is ProofMemoHits / Queries.
	ProofSigns    uint64
	ProofMemoHits uint64
}

// Metrics returns a point-in-time copy of the counters.
func (l *Ledger) Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		Claims:        l.metrics.claims.Load(),
		Ops:           l.metrics.ops.Load(),
		Queries:       l.metrics.queries.Load(),
		ProofSigns:    l.metrics.signs.Load(),
		ProofMemoHits: l.metrics.memoHits.Load(),
	}
}

// Registry returns the observability registry this ledger's counters
// live in (the one passed as Config.Obs, or the private default).
func (l *Ledger) Registry() *obs.Registry { return l.obsReg }
