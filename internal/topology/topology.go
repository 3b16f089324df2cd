// Package topology implements the multi-tier deployment shape the
// paper's scale argument assumes: browsers → edge proxies → regional
// proxies → origin ledgers (§4.4's "trusted proxies" at internet
// scale, ROADMAP open item 1).
//
// Two distribution planes run through the tiers:
//
//   - Filter plane: the origin ledger publishes numbered revocation
//     filter snapshots; regionals sync from the origin and edges sync
//     from regionals via the versioned sync protocol (FilterCache,
//     bloom.Update payloads — base-hash-validated deltas or full
//     snapshots, whichever is smaller, with snapshot fallback on any
//     base mismatch). Staleness grows one sync interval per hop; the
//     -topology harness measures that tradeoff curve.
//
//   - Record plane: the origin serves all writes and appends every
//     accepted mutation to a replication log; read replicas at the
//     regional tier catch up from the log and serve StatusBatch reads.
//     Periodic checkpoints — the origin's canonical StateHash signed by
//     its replication key — gate the replicas: a replica only reports
//     Ready while its own StateHash matches the last verified
//     checkpoint, and a mismatch triggers a full resync (anti-entropy).
//
// Per-tier metrics land in the shared obs registry under
// irs_topology_*.
package topology

import (
	"irs/internal/obs"
)

// Tier names a level of the proxy hierarchy.
type Tier int

// The three tiers of the deployment story.
const (
	TierOrigin Tier = iota
	TierRegional
	TierEdge
)

// String implements fmt.Stringer (and labels the per-tier metrics).
func (t Tier) String() string {
	switch t {
	case TierOrigin:
		return "origin"
	case TierRegional:
		return "regional"
	case TierEdge:
		return "edge"
	}
	return "unknown"
}

// filterMetrics is the per-tier instrumentation of one FilterCache.
type filterMetrics struct {
	syncUpToDate *obs.Counter // served: caller already current
	syncDelta    *obs.Counter // served: incremental payload
	syncSnapshot *obs.Counter // served: full snapshot payload
	syncBytes    *obs.Counter // served payload bytes
	pullChanged  *obs.Counter // pulled: new epoch installed
	pullCurrent  *obs.Counter // pulled: already current
	pullBytes    *obs.Counter // pulled payload bytes
}

func newFilterMetrics(reg *obs.Registry, tier Tier) *filterMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := obs.L("tier", tier.String())
	return &filterMetrics{
		syncUpToDate: reg.Counter("irs_topology_filter_syncs_total", l, obs.L("kind", "uptodate")),
		syncDelta:    reg.Counter("irs_topology_filter_syncs_total", l, obs.L("kind", "delta")),
		syncSnapshot: reg.Counter("irs_topology_filter_syncs_total", l, obs.L("kind", "snapshot")),
		syncBytes:    reg.Counter("irs_topology_filter_sync_bytes_total", l),
		pullChanged:  reg.Counter("irs_topology_filter_pulls_total", l, obs.L("kind", "changed")),
		pullCurrent:  reg.Counter("irs_topology_filter_pulls_total", l, obs.L("kind", "current")),
		pullBytes:    reg.Counter("irs_topology_filter_pull_bytes_total", l),
	}
}

// replicaMetrics instruments the record plane.
type replicaMetrics struct {
	entries     *obs.Counter // log entries applied
	catchups    *obs.Counter // successful verified catch-ups
	resyncs     *obs.Counter // anti-entropy full resyncs
	checkpoints *obs.Counter // checkpoints cut at the origin
}

func newReplicaMetrics(reg *obs.Registry, tier Tier) *replicaMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := obs.L("tier", tier.String())
	return &replicaMetrics{
		entries:     reg.Counter("irs_topology_replica_entries_total", l),
		catchups:    reg.Counter("irs_topology_replica_catchups_total", l, obs.L("outcome", "ok")),
		resyncs:     reg.Counter("irs_topology_replica_catchups_total", l, obs.L("outcome", "resync")),
		checkpoints: reg.Counter("irs_topology_checkpoints_total", l),
	}
}
