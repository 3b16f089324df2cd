package main

// The benchmark's fixed vocabulary: workloads, sizes and metric names.
// BENCHMARK.json repeats the names; bench_test.go checks the two agree.
// Later issues refer to these names, so they do not change.

// scale holds every size the workloads use. The benchmark runs at
// fullScale; tinyScale exists for bench_test.go only. None of this is a
// flag: two runs are comparable only if they ran the same sizes.
type scale struct {
	// setupReps is how many times a run builds the stack from nothing;
	// the reported setup_s is the fastest and the last one built is the
	// one measured.
	setupReps  int
	shape      popShape
	proxyCache int // proxy proof-cache entries
	// viewers is the number of closed-loop page-view clients; 0 means
	// nproc, capped at maxClients, so that every core stays busy and
	// none is oversubscribed.
	viewers int
	// Per-client ops per block, chosen so that a block takes a little
	// under a second on the reference host.
	filteredOps int
	resolveOps  int
	revokeOps   int
	// churnPool is how many ids at the tail of the population
	// revoke_sync draws its revocations from.
	churnPool int
	// upload_ingest: corpus size in albums and corpus passes per block.
	uploadAlbums int
	uploadPasses int
	// sampledPages is how many pages per client and block have the
	// signatures of their proofs verified (off the clock).
	sampledPages int
	// maxBlocks caps the timed blocks; 0 means one per second asked for.
	maxBlocks int
	// indexSeed is the size of the standalone SigIndex the index-lookup
	// replay probes.
	indexSeed int
}

func (s scale) blocks(seconds int) int {
	if s.maxBlocks > 0 {
		return s.maxBlocks
	}
	return seconds
}

var fullScale = scale{
	setupReps: 5,
	// 2 % revoked; 300 false positives is a little under what the first
	// filter (sized by the ledger for 1.5× the revoked set at 2 %)
	// yields over the remaining claims.
	shape:        popShape{claims: 100_000, revoked: 2_000, falsePositives: 300},
	proxyCache:   512,
	filteredOps:  9_500,
	resolveOps:   540,
	revokeOps:    160,
	churnPool:    40_000,
	uploadAlbums: 20,
	uploadPasses: 1,
	sampledPages: 32,
	indexSeed:    20_000,
}

var tinyScale = scale{
	setupReps:    1,
	viewers:      1, // one page in flight: same-seed runs repeat exactly
	shape:        popShape{claims: 3_000, revoked: 60, falsePositives: 0},
	proxyCache:   16,
	filteredOps:  60,
	resolveOps:   20,
	revokeOps:    roundsInFlight + 6,
	churnPool:    2_000,
	uploadAlbums: 2,
	uploadPasses: 1,
	sampledPages: 1 << 30, // every page
	maxBlocks:    2,
	indexSeed:    500,
}

// workloadSpec names a workload and knows how to set it up.
type workloadSpec struct {
	name string
	// op says what one op is.
	op    string
	build func(sc scale, seed int64, tmp string, tr *tracer) (rig, error)
}

var workloads = []workloadSpec{
	{
		name: "pageview_filtered", op: "page view of 48 ids",
		build: func(sc scale, seed int64, tmp string, tr *tracer) (rig, error) {
			return buildPageview(sc, seed, tmp, tr, sc.filteredOps,
				func(pop *population, n int, seed int64) []page {
					return zipfPages(n, len(pop.ids), seed)
				})
		},
	},
	{
		name: "pageview_resolve", op: "page view of 48 ids",
		build: func(sc scale, seed int64, tmp string, tr *tracer) (rig, error) {
			return buildPageview(sc, seed, tmp, tr, sc.resolveOps,
				func(pop *population, n int, seed int64) []page {
					return uniformPages(n, pop.positive, seed)
				})
		},
	},
	{name: "upload_ingest", op: "album of 16 images", build: buildUpload},
	{name: "revoke_sync", op: "revocation round", build: buildRevoke},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metric is a name and its unit.
type metric struct{ name, unit string }

// endToEndMetrics are printed by an untraced run, on every workload.
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MiB"},
	{"wire_bytes_per_op", "B"},
	{"upstream_rpcs_per_op", "count"},
	{"disk_bytes_per_claim", "B"},
}

// perLayerMetrics are printed by a traced run, on every workload; a
// metric a workload does not exercise reads 0.
var perLayerMetrics = []metric{
	{"proxy.handler_us_per_op", "us"},
	{"proxy.admit_ns_per_op", "ns"},
	{"proxy.set_filter_us", "us"},
	{"proxy.filter_answer_share", "share"},
	{"proxy.cache_hit_share", "share"},
	{"proxy.ledger_query_share", "share"},

	{"wire.hop1_rtt_us_per_op", "us"},
	{"wire.hop2_rtt_us_per_rpc", "us"},
	{"wire.server_handler_us_per_rpc", "us"},
	{"wire.encode_ns_per_proof", "ns"},
	{"wire.decode_ns_per_proof", "ns"},
	{"wire.hop1_bytes_per_op", "B"},
	{"wire.hop2_bytes_per_op", "B"},
	{"wire.rpcs_per_op.claim", "count"},
	{"wire.rpcs_per_op.op", "count"},
	{"wire.rpcs_per_op.status", "count"},
	{"wire.rpcs_per_op.status_batch", "count"},
	{"wire.rpcs_per_op.filter_sync", "count"},

	{"ledger.status_batch_us_per_id", "us"},
	{"ledger.verify_proof_us", "us"},
	{"ledger.claim_us", "us"},
	{"ledger.apply_us", "us"},
	{"ledger.build_snapshot_us", "us"},
	{"ledger.filter_sync_us", "us"},
	{"ledger.flush_ms", "ms"},
	{"ledger.wal_syncs_per_write", "count"},
	{"ledger.wal_bytes_per_write", "B"},
	{"ledger.flushes", "count"},
	{"ledger.compactions", "count"},
	{"ledger.segments", "count"},

	{"bloom.test_ns_per_id", "ns"},
	{"bloom.update_us", "us"},
	{"bloom.apply_update_us", "us"},
	{"bloom.delta_bytes_per_epoch", "B"},
	{"bloom.snapshot_fallbacks", "count"},

	{"topology.pull_regional_us", "us"},
	{"topology.pull_edge_us", "us"},
	{"topology.epoch_lag_rounds", "count"},

	{"aggregator.batch_handler_ms", "ms"},
	{"aggregator.index_lookup_us_per_image", "us"},
	{"aggregator.pipeline_overlap", "ratio"},
	{"aggregator.accept_share", "share"},
	{"aggregator.deny_share.revoked", "share"},
	{"aggregator.deny_share.label-mismatch", "share"},
	{"aggregator.deny_share.malformed", "share"},
	{"photo.decode_us_per_image", "us"},
	{"watermark.extract_us_per_image", "us"},
	{"phash.signature_us_per_image", "us"},

	{"host.speed", "ratio"},
	{"host.calib_us_p25", "us"},
	{"host.calib_us_max", "us"},
	{"host.perturbed_blocks", "count"},
	{"host.gc_cycles_per_kop", "count"},
	{"host.gc_pause_ms", "ms"},

	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
}
