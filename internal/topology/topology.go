// Package topology implements the record plane of the multi-tier
// deployment the paper's scale argument assumes (§4.4's "trusted
// proxies" at internet scale): the origin serves all writes and appends
// every accepted mutation to a replication log; read replicas at the
// regional tier catch up from the log and serve StatusBatch reads.
// Periodic checkpoints — the origin's canonical StateHash signed by its
// replication key — gate the replicas: a replica only reports Ready
// while its own StateHash matches the last verified checkpoint, and a
// mismatch triggers a full resync (anti-entropy).
//
// The filter plane needs no type of its own: every holder of a
// revocation filter, a tier included, is a bloom.Window or a
// proxy.Validator, and tiers chain through Window.Sync and Window.Pull.
//
// The record plane's metrics land in the shared obs registry under
// irs_topology_*.
package topology

import (
	"irs/internal/obs"
)

// replicaMetrics instruments the record plane.
type replicaMetrics struct {
	entries     *obs.Counter // log entries applied
	catchups    *obs.Counter // successful verified catch-ups
	resyncs     *obs.Counter // anti-entropy full resyncs
	checkpoints *obs.Counter // checkpoints cut at the origin
}

func newReplicaMetrics(reg *obs.Registry, tier string) *replicaMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := obs.L("tier", tier)
	return &replicaMetrics{
		entries:     reg.Counter("irs_topology_replica_entries_total", l),
		catchups:    reg.Counter("irs_topology_replica_catchups_total", l, obs.L("outcome", "ok")),
		resyncs:     reg.Counter("irs_topology_replica_catchups_total", l, obs.L("outcome", "resync")),
		checkpoints: reg.Counter("irs_topology_checkpoints_total", l),
	}
}
