package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"irs/internal/ledger"
)

// traceAgg accumulates what the traced blocks' spans say, block by
// block, so that the spans themselves need not outlive their block.
type traceAgg struct {
	ops     []int64           // root duration of every traced op
	path    [numKinds][]int64 // per op: blocking-path time billed to each kind
	rpcSelf []int64           // per hop-2 RPC: caller-observed time minus the server handler's
	served  [numRPCs][]int64  // per wire.Server request: handler duration, by RPC kind
	dur     [numKinds][]int64 // per span: duration
	self    [numKinds][]int64 // per span: self time
	spans   int
	orphans int
	// sample is one whole op's spans from the last traced block, the op
	// nearest that block's median duration: the waterfall.
	sample []span
	// last is the last traced block's linked spans, kept for -spans.
	last []span
}

func newTraceAgg() *traceAgg { return &traceAgg{} }

// addBlock links one traced block's spans and folds them in.
func (t *traceAgg) addBlock(spans []span, keyInOp func(int64, uint64) bool) {
	t.spans += len(spans)
	t.orphans += link(spans, keyInOp)
	kids := children(spans)
	var roots []int
	for i := range spans {
		s := &spans[i]
		if s.Kind == kOp {
			roots = append(roots, i)
		} else if s.Parent < 0 {
			continue // orphan: in no op's tree
		}
		d, self := s.End-s.Start, selfTime(spans, kids, i)
		t.dur[s.Kind] = append(t.dur[s.Kind], d)
		t.self[s.Kind] = append(t.self[s.Kind], self)
		switch s.Kind {
		case kRPC:
			t.rpcSelf = append(t.rpcSelf, self)
		case kWireHandler:
			t.served[s.Sub] = append(t.served[s.Sub], d)
		}
	}
	for _, root := range roots {
		var per [numKinds]int64
		blockingPath(spans, kids, root, &per)
		t.ops = append(t.ops, spans[root].End-spans[root].Start)
		for k := range per {
			t.path[k] = append(t.path[k], per[k])
		}
	}
	if len(roots) > 0 {
		sort.Slice(roots, func(a, b int) bool {
			return spans[roots[a]].End-spans[roots[a]].Start < spans[roots[b]].End-spans[roots[b]].Start
		})
		t.sample = subtree(spans, kids, roots[len(roots)/2])
	}
	t.last = spans
}

// subtree copies a root and its descendants, parents re-indexed.
func subtree(spans []span, kids map[int][]int, root int) []span {
	var out []span
	var walk func(i, parent int)
	walk = func(i, parent int) {
		s := spans[i]
		s.Parent = parent
		out = append(out, s)
		me := len(out) - 1
		for _, c := range kids[i] {
			walk(c, me)
		}
	}
	walk(root, -1)
	return out
}

// waterfall prints the sample op: one line per span, indented by depth,
// with offsets from the op's start.
func (t *traceAgg) waterfall(w io.Writer) {
	if len(t.sample) == 0 {
		return
	}
	depth := make([]int, len(t.sample))
	t0 := t.sample[0].Start
	for i, s := range t.sample {
		if s.Parent >= 0 {
			depth[i] = depth[s.Parent] + 1
		}
		name := kindNames[s.Kind]
		if s.Kind == kRPC || s.Kind == kWireHandler {
			name += "." + rpcNames[s.Sub]
		}
		fmt.Fprintf(w, "#   %s%-*s +%8.1f us  %8.1f us\n", strings.Repeat("  ", depth[i]),
			34-2*depth[i], name, float64(s.Start-t0)/1e3, float64(s.End-s.Start)/1e3)
	}
}

func medianUS(v []int64) float64 { return float64(quantile(v, 0.5)) / 1e3 }

// storageDelta is what the ledger's storage engine did during the timed
// blocks and the final flush.
type storageDelta struct {
	writes, syncs        uint64
	flushes, compactions uint64
	segments             int
	finalFlush           time.Duration
}

func storageSince(a, b ledger.StorageStats, finalFlush time.Duration) storageDelta {
	return storageDelta{
		writes:      b.WALRecords - a.WALRecords,
		syncs:       b.WALSyncs - a.WALSyncs,
		flushes:     b.Flushes - a.Flushes,
		compactions: b.Compactions - a.Compactions,
		segments:    b.Segments,
		finalFlush:  finalFlush,
	}
}

// bloomCounts is what crossed the filter plane during the timed blocks.
type bloomCounts struct {
	deltas, snapshots uint64
	bytes             uint64 // payload bytes origin → regional
}

func (s *tracedSyncer) reset() {
	s.deltas.Store(0)
	s.snapshots.Store(0)
	s.bytes.Store(0)
}

// perLayer computes the per-layer metrics of a traced run.
func (r *runResult) perLayer() map[string]float64 {
	m := make(map[string]float64, len(perLayerMetrics))
	for _, pm := range perLayerMetrics {
		m[pm.name] = 0
	}
	t := r.trace
	for k, v := range r.replays {
		m[k] = v
	}

	// Counts come from the untraced blocks: a traced request carries the
	// op-id header, which would count as wire bytes.
	var total counters
	var calib []time.Duration
	var walBytes, walWrites uint64
	plainBlocks := r.blocksWhere(false)
	for _, i := range plainBlocks {
		total.add(r.blocks[i].delta, counters{})
	}
	for i := range r.blocks {
		calib = append(calib, r.blocks[i].calib)
		walBytes += r.blocks[i].walBytes
		walWrites += r.blocks[i].walWrites
	}
	if walWrites > 0 {
		m["ledger.wal_bytes_per_write"] = float64(walBytes) / float64(walWrites)
	}
	calib = append(calib, r.calibLast)
	ops := float64(len(plainBlocks) * r.opsPerBlk)
	allOps := float64(len(r.blocks) * r.opsPerBlk)
	if r.proxyTotal > 0 {
		m["proxy.filter_answer_share"] = float64(r.proxyStats[0]) / float64(r.proxyTotal)
		m["proxy.cache_hit_share"] = float64(r.proxyStats[1]) / float64(r.proxyTotal)
		m["proxy.ledger_query_share"] = float64(r.proxyStats[2]) / float64(r.proxyTotal)
	}
	m["wire.hop1_bytes_per_op"] = float64(total.hop1) / ops
	m["wire.hop2_bytes_per_op"] = float64(total.hop2) / ops
	for k := rpcClaim; k <= rpcFilterSync; k++ {
		m["wire.rpcs_per_op."+rpcNames[k]] = float64(total.rpcs[k]) / ops
	}

	// Span medians.
	m["proxy.handler_us_per_op"] = medianUS(t.path[kProxyHandler])
	m["wire.hop1_rtt_us_per_op"] = medianUS(t.path[kHop1])
	m["wire.hop2_rtt_us_per_rpc"] = medianUS(t.rpcSelf)
	var served []int64
	for k := range t.served {
		served = append(served, t.served[k]...)
	}
	m["wire.server_handler_us_per_rpc"] = medianUS(served)
	m["ledger.claim_us"] = medianUS(t.served[rpcClaim])
	m["ledger.apply_us"] = medianUS(t.served[rpcOp])
	m["ledger.filter_sync_us"] = medianUS(t.served[rpcFilterSync])
	m["ledger.build_snapshot_us"] = medianUS(t.dur[kBuildSnapshot])
	m["topology.pull_regional_us"] = medianUS(t.self[kPullRegional])
	m["topology.pull_edge_us"] = medianUS(t.self[kPullEdge])
	m["aggregator.batch_handler_ms"] = medianUS(t.dur[kAggHandler]) / 1e3
	if len(t.dur[kSetFilter]) > 0 {
		m["proxy.set_filter_us"] = medianUS(t.dur[kSetFilter])
	}

	// Storage engine and filter plane.
	s := r.storage
	if s.writes > 0 {
		m["ledger.wal_syncs_per_write"] = float64(s.syncs) / float64(s.writes)
	}
	m["ledger.flush_ms"] = float64(s.finalFlush) / 1e6
	m["ledger.flushes"] = float64(s.flushes)
	m["ledger.compactions"] = float64(s.compactions)
	m["ledger.segments"] = float64(s.segments)
	if n := r.bloom.deltas + r.bloom.snapshots; n > 0 {
		// Both tiers relay every epoch, so the epoch count is half the
		// payload count; bytes are the origin → regional payloads.
		m["bloom.delta_bytes_per_epoch"] = float64(r.bloom.bytes) / (float64(n) / 2)
	}
	m["bloom.snapshot_fallbacks"] = float64(r.bloom.snapshots)
	m["topology.epoch_lag_rounds"] = float64(r.lagRounds)

	// upload_ingest decisions.
	m["aggregator.accept_share"] = r.uploadMix["accepted"]
	m["aggregator.deny_share.revoked"] = r.uploadMix["revoked"]
	m["aggregator.deny_share.label-mismatch"] = r.uploadMix["label-mismatch"]
	m["aggregator.deny_share.malformed"] = r.uploadMix["malformed"]

	// Host.
	sorted := slices.Sorted(slices.Values(calib))
	fastest := sorted[0]
	perturbed := 0
	for i := range r.blocks {
		// A block is bracketed by the probe before it and the one after.
		if float64(max(calib[i], calib[i+1])) > 1.15*float64(fastest) {
			perturbed++
		}
	}
	m["host.speed"] = r.blockSpeed()
	m["host.calib_us_p25"] = float64(quantile(sorted, 0.25)) / 1e3
	m["host.calib_us_max"] = float64(sorted[len(sorted)-1]) / 1e3
	m["host.perturbed_blocks"] = float64(perturbed)
	m["host.gc_cycles_per_kop"] = float64(r.gcCycles) / allOps * 1e3
	m["host.gc_pause_ms"] = float64(r.gcPause) / 1e6

	// Trace quality.
	var sum float64
	for k := range t.path {
		sum += float64(quantile(t.path[k], 0.5))
	}
	if p50 := float64(quantile(t.ops, 0.5)); p50 > 0 {
		m["trace.coverage"] = sum / p50
	}
	// Every other block is traced, so the two pools saw the same host.
	plain, traced := r.pooled(r.blocksWhere(false)), r.pooled(r.blocksWhere(true))
	if p := float64(quantile(plain, 0.5)); p > 0 {
		m["trace.overhead_pct"] = (float64(quantile(traced, 0.5)) - p) / p * 100
	}

	if serial, ok := m["aggregator.serial_ms_per_album"]; ok {
		delete(m, "aggregator.serial_ms_per_album")
		if h := m["aggregator.batch_handler_ms"]; h > 0 {
			m["aggregator.pipeline_overlap"] = serial / h
		}
	}
	return m
}
