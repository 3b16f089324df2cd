#!/bin/sh
# Repository check gate: formatting, vet, and the full test suite under
# the race detector. The parallel layer's determinism tests run at
# several worker counts regardless of the host's core count, so a pass
# here covers single-core CI machines too.
#
# Wall-clock budget for the whole script: 15 minutes on a 2-core host
# (the full -race suite is about half of it, the ten ten-second
# fuzzers another minute and forty seconds). The elapsed time is printed
# beside "all green" and gates nothing: no stage here compares two
# wall-clock latencies, because on a shared host that asserts nothing.
set -eu
cd "$(dirname "$0")/.."
start=$(date +%s)

unformatted=$(gofmt -l cmd internal bench_test.go doc.go examples 2>/dev/null || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go test -race ./...

# Fault-injection and degradation paths re-run under the race detector
# explicitly (they are the newest concurrency surface; -race ./... above
# already covers them, this names them so a failure is legible).
go test -race -run 'Faulty|Retry|Breaker|Degrade|FailOpen|FailClosed|WAL|Directory|Reuse' \
    ./internal/netsim ./internal/wire ./internal/proxy ./internal/ledger

# The derivative-lookup index's lock-free snapshot scheme and its
# linear-equivalence proof, named for the same reason.
go test -race -run 'IndexConcurrentUploadLookupTakeDown|IndexedLinearDifferential|LookupHashFirstMatch|ClearsHashDB' \
    ./internal/aggregator

# The batch endpoint's framing: a declared Content-Length, hostile
# length prefixes and frame counts are 400s that allocate by what was
# sent, not by what was claimed; one layer down, a well-framed container
# whose header claims 16384×16384×3 fails its own slot the same way (64
# of them through the endpoint, and the decoders on their own with and
# without a reader that knows its length). Bodies are recycled and
# parsed in place, so concurrent albums through one server must host
# exactly their sources' pixels and decide as serial Upload does (ten
# times over). The in-memory parser and the stream decoder are held to
# the retained stream decoder, video containers included, then fuzzed
# for ten seconds.
go test -race -count=10 -run 'ServerBatchUpload|ServerBatchBodySizedByBytesReceived|UploadBatchBodyReuse' ./internal/aggregator
go test -race -run 'DecodeSizesBuffersByBytesReceived|DecodeGrowsWithUnsizedReader|ParseIRSPMatchesReference|VideoCodec' ./internal/photo
go test -run='^$' -fuzz=FuzzParseIRSP -fuzztime=10s ./internal/photo

# Album ingest: ordered-commit determinism against the serial path,
# cancellation (before the call and mid-status), poisoned-item
# isolation, and the batched status step (request count as a function
# of the album at workers 1/4/8, per-(album, ledger) fault parity),
# then the claim answer's
# first proof end to end: ledger, wire (mixed versions), and the
# aggregator's one-Status fallback, and who owns a hosted image (what a
# caller can still write is copied, a custodial relabel is not). Named
# under -race.
go test -race -run 'PipelineDecisionsMatchSerial|UploadAllCancellation|PipelinePoisonedItem|PipelineStatusRequestCount|PipelineStatusFaultParity|VideoUploadWorkerInvariance|CustodialClaimUsesReceiptProof|HostOwnership' \
    ./internal/aggregator
go test -race -run 'ClaimProofMatchesStatus|ClaimCarriesFirstProof|ClaimProofMixedVersions' \
    ./internal/ledger ./internal/wire

# Watermark reader: the single-coefficient DCT kernels against
# Forward8, and the sliding kernel + CRC-first sweep against the
# retained full-transform per-phase scan (all 64 pixel phases, four
# config shapes, the E6 transform matrix, worker counts 1/2/4/8); and
# the writer: AddBasis8 against the Forward8/Inverse8 round trip, Embed
# and Erase against the retained full-transform loop (byte-identical
# pixels over gray/RGB, clamped, partial-block and fan-out sizes, four
# config shapes, workers 1/2/8), and payloads with a CRC-valid twin
# code phase reading back their own id. Named under -race; then ten
# seconds each of the reader's size/crop and the writer's seed/size fuzz
# target, whose committed corpus replays the twin finding.
go test -race -run 'Coef8BitIdentical|RowPass8Bounds|AddBasis8MatchesInverse|SearchPixelPhaseBitIdentical|ExtractMatchesReference|AssembleMatchesSlotOrder|EmbedExtractWorkerInvariance|EmbedMatchesReference|TwinPayloadsReadBack' \
    ./internal/dct ./internal/watermark
go test -run='^$' -fuzz=FuzzExtractMatchesReference -fuzztime=10s ./internal/watermark
go test -run='^$' -fuzz=FuzzEmbedMatchesReference -fuzztime=10s ./internal/watermark

# Perceptual hashes: the one-pass prefix-row downscale against the
# retained per-cell summation (every width and height 1..72, random
# sizes to 512, gray and RGB, empty images) and against the seed's
# float hashes, with its O(W) working set pinned. Named under -race.
go test -race -run 'SignatureMatchesSeparateHashes|HashesBitIdenticalToFloatReference|DownscaleRowIsOrderW' ./internal/phash

# Storage engine: group-commit coalescing, crash-injection recovery at
# shard counts 1/8/32, torn-tail truncation, shard/in-memory state
# equivalence, the legacy-directory refusal, and the HTTP-wired restart
# hammer — all named under the race detector. With them the validation
# path's per-second proof memo (byte identity with a fresh Sign, state
# flips inside one second, rollover, cap, the StatusBatch/Apply/flush
# hammer), the state-only segment read against the decoding one, the
# claim-frame golden that pins segment and WAL bytes, and the bulk write
# path: flush and 4-way compaction byte-identical to the retained
# copy-sort-encode flush and decoding merge, a record mutated between a
# flush's freeze and its eviction, and claims counted once. Last, the
# resident revoked set that answers revoked ids: status answers against
# the retained segment read over seeded histories, permanence across a
# reopen, its rollback when the WAL refuses an op, and the
# ops/StatusBatch/flush/compaction hammer.
go test -race -run 'GroupCommit|WALSyncOS|Crash|TornTail|RecoveryRemovesOrphans|MidFileCorruptionRefused|EngineMismatchRefused|SegmentReopenShardAndEngineEquivalence|SegmentBackgroundFlushAndCompaction|StateHash|ProofMemo|StatusBatchMatchesSerial|LookupStateMatchesLookup|ClaimFrameGolden|MatchesReference|MutationBetweenFreezeAndEviction|RestoreCountsDistinctClaims|ResidentStateMatchesSegmentRead|PermanenceSurvivesReopen|ResidentSetRollsBackOnWALFailure|ResidentSetHammer' \
    ./internal/ledger
go test -race -run 'PersistentLedgerSurvivesRestart' ./internal/integration

# The benchmark is its own module (irs/bench), which `go test ./...`
# above does not compile; it imports internal APIs, so drift must fail
# here rather than in the benchmark pipeline (~8 s).
(cd bench && go vet ./... && go test ./...)

# Fuzz the binary record framing and the WAL replay path: ten seconds
# each over the seeded corpus plus fresh mutations.
go test -run='^$' -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/ledger
go test -run='^$' -fuzz=FuzzWALReplayBytes -fuzztime=10s ./internal/ledger

# Multi-tier filter distribution and ledger replication: the topology
# package suite (tier chaining, base-mismatch fallback, tiers converging
# on a restarted origin that renumbered its epochs, checkpoint gate,
# anti-entropy resync) plus the named sync-protocol regressions in
# bloom/ledger/wire/proxy — the shared epoch window and pull step,
# concurrent BuildSnapshot calls publishing strictly increasing epochs,
# the proxy's single-flight refresh (16 concurrent POST /v1/refresh
# cost one FilterSync per ledger, a held epoch never steps back) — all
# under the race detector.
go test -race ./internal/topology
go test -race -run 'FilterSync|DeltaV2|UpdateCrossover|ApplyUpdate|WindowInstallDropsRenumberedEpochs|PullFallsBackToColdSync|BuildSnapshotConcurrentEpochsIncrease|RefreshFiltersSurvivesFilterRebuild|RefreshFiltersDetectsBaseMismatch|RefreshEndpointSingleFlight|RefreshFiltersEpochNeverDecreases|RestoreRecordsClearsRevokedIndex|CacheStaleBoundary' \
    ./internal/bloom ./internal/ledger ./internal/wire ./internal/proxy

# Fuzz the delta decoder (varint/gap parsing, v2 hash frames): ten
# seconds over the seeded corpus plus fresh mutations. The pattern is
# anchored because -fuzz matches by prefix and FuzzApply* share one.
go test -run='^$' -fuzz='^FuzzApplyUpdate$' -fuzztime=10s ./internal/bloom

# The surviving irs-bench harnesses at smoke size, in-process: each
# returns an error when a gate it enforces before timing fails (-lookup
# arms agree on every probe, -topology replicas match the origin's
# StateHash and codec twins decide alike, -chaos same-seed traces
# repeat), and each report is decoded back into its schema. The
# committed BENCH_{lookup,topology,chaos}.json are the full-scale runs
# (seed 42).
go test -race -run 'LookupQuickArmsAgree|TopologyQuickStateHashGate|ChaosQuickReport' ./cmd/irs-bench

# Observability layer: the metrics-conservation invariant end to end,
# the chaos obs determinism replay, the obs package's own suite, and
# the overhead gate — a validator with a registry allocates exactly
# what one without does for a 48-photo page — all under the race
# detector. With the gate, the proxy's by-value proof cache: the arena
# LRU against the retained container/list one step for step, who owns a
# proof at each hand-off, an undefined state byte failing its own id
# and staying out of the cache, and the ValidateBatch/Invalidate/
# SetFilter hammer on one 64-entry stripe.
go test -race -run 'MetricsConservation' ./internal/integration
go test -race -run 'ChaosObsDeterminism' ./cmd/irs-bench
go test -race -run 'ObsAddsNoAllocations|CacheMatchesListReference|CacheHammer|ProofOwnership|UndefinedState' \
    ./internal/proxy ./internal/ledger ./internal/wire
go test -race ./internal/obs

# Allocation budgets of the page-view path, asserted without the race
# detector (its instrumentation moves values to the heap): a batch of
# proofs is one array at each layer — 37 memo hits in Ledger.StatusBatch,
# a 37-proof hop-2 frame decoded, a put on a full cache stripe, the
# 48-id resolve page through ValidateBatch — and a registry adds none.
# With them the ledger's bulk write path (TestWritePathAllocationBudget):
# RestoreRecords of 10,000 records within 64 allocations, a memtable
# freeze within 4 at any size, a compaction of 4 x 5,000 within 200.
# And a bad op signature costs one Ed25519 verification, not a scan.
# The upload path: a 16-image album through the batch endpoint within
# its hosted pixels plus 64 KiB, an aligned watermark read of a gray
# image allocating nothing, and Embed allocating only its output.
go test -run 'AllocationBudget|CacheArenaGrowsOnDemandAndRecycles|ObsAddsNoAllocations|ApplyBadSignatureVerifiesOnce|SteadyStateAllocs' \
    ./internal/ledger ./internal/wire ./internal/proxy ./internal/aggregator ./internal/watermark

# Fuzz the Prometheus exposition writer and the histogram: ten seconds
# each over the seeded corpus plus fresh mutations.
go test -run='^$' -fuzz=FuzzPrometheusText -fuzztime=10s ./internal/obs
go test -run='^$' -fuzz=FuzzHistogramObserve -fuzztime=10s ./internal/obs

# IRSW1 binary wire codec: the codec roundtrip suite, the Go clients'
# contract at both the wire and proxy layers (the first request is
# already IRSW1, a 2xx in any other encoding is an error, no response
# carries X-IRS-Wire), the servers' JSON answers byte-identical to the
# clients' IRSW1 ones, both hops' hostile-frame and dead-server
# TransportError classification and shared client batch bound, the one
# hostile-request table run against both batch routes, and the
# keep-alive pool sizing, all named under the race detector.
go test -race -run 'Binary|ProxyClient|FirstRequestIsIRSW1|SendsNoWireAdvertisement|KeepAliveReuseAtHighConcurrency|ConnectionRefused|ClientRefusesOversized|ServerRejectsHostileBodies' \
    ./internal/wire ./internal/proxy

# Fuzz the IRSW1 frame decoder (length prefix, CRC, per-kind payload
# parsers): ten seconds over the seeded corpus plus fresh mutations.
go test -run='^$' -fuzz=FuzzWireFrameDecode -fuzztime=10s ./internal/wire

# The serving-path (filter-positive batches included), write-path,
# derivative-lookup and obs on/off benchmarks compile and run once each;
# nothing is timed here — `bash bench/run.sh` is where numbers come from.
go test -run='^$' -bench='Serving|StatusBatchFilterPositive|RestoreFlush|Compact$' -benchtime=1x ./internal/ledger ./internal/proxy
go test -run='^$' -bench='BenchmarkLookup|BenchmarkValidateObs' -benchtime=1x .

# Zero-alloc guard: the vectorized 8×8 DCT, the perceptual hashes (one
# alone and the fused three-hash signature), and the IRSW1 wire codec's server-encode and client-decode
# hot paths must stay allocation-free; any allocs/op > 0 here means a
# scratch pool, unrolled loop, or pooled codec buffer regressed. 1000
# iterations, not 10: sync.Pool is per-P, so on a 2-core host the timed
# loop can start on the P the warm-up did not fill, and that one cold
# buffer (~10 allocations) read as 1 alloc/op over ten iterations. A
# real per-call allocation still reads >= 1.
for pkg_bench in "./internal/dct BenchmarkDCT8x8" "./internal/phash BenchmarkPHash$" \
    "./internal/phash BenchmarkNewSignature/192x128" \
    "./internal/wire BenchmarkStatusEncodeBinary" "./internal/wire BenchmarkStatusDecodeBinary"; do
    pkg=${pkg_bench% *}
    bench=${pkg_bench#* }
    out=$(go test -run='^$' -bench="$bench" -benchtime=1000x -benchmem "$pkg")
    echo "$out" | grep Benchmark
    if echo "$out" | grep Benchmark | awk '{for (i=1;i<=NF;i++) if ($i=="allocs/op" && $(i-1)+0>0) exit 1}'; then :; else
        echo "check.sh: kernel benchmark $bench in $pkg allocates" >&2
        exit 1
    fi
done

# Bounds-check-elimination guard for the unrolled kernels.
sh scripts/check_bce.sh

# /debug/metrics endpoint smoke: boot an irs-ledger with -debug, wait
# for it to listen, and check the exposition includes a known family.
go build -o /tmp/irs_ledger_check ./cmd/irs-ledger
/tmp/irs_ledger_check -id 1 -addr 127.0.0.1:18339 -appeals=false -debug \
    >/tmp/irs_ledger_check.log 2>&1 &
LEDGER_PID=$!
trap 'kill $LEDGER_PID 2>/dev/null || true' EXIT
ok=0
for _ in 1 2 3 4 5 6 7 8 9 10; do
    if curl -fsS http://127.0.0.1:18339/debug/metrics 2>/dev/null \
        | grep -q '^irs_ledger_queries_total'; then
        ok=1
        break
    fi
    sleep 0.5
done
kill $LEDGER_PID 2>/dev/null || true
if [ "$ok" != 1 ]; then
    echo "check.sh: /debug/metrics smoke failed (see /tmp/irs_ledger_check.log)" >&2
    exit 1
fi

# The one deployment assembly, core.Build: its in-process and
# loopback-HTTP links decide alike (view decisions, answer sources,
# proof bytes, a stripped copy, a foreign ledger's default deny), the
# id=url flag parser every binary shares refuses bad entries, a stopping
# server drains the request in flight before it returns, and the relay
# egress resolves through proxy.Validator.Resolve. Named under -race.
go test -race -run 'BuildLinksAgree|EndpointsFlag|ServeDrainsInFlightRequests|ResolveIsValidateMarshalled' \
    ./internal/core ./internal/proxy

# Every example runs to completion: a non-zero exit (a wrong decision
# in browser-extension included) or a hang fails the gate.
for ex in examples/*/; do
    if ! timeout 120 go run "./${ex%/}" >/tmp/irs_example_check.log 2>&1; then
        echo "check.sh: example ${ex%/} failed (see /tmp/irs_example_check.log)" >&2
        exit 1
    fi
done

# Adversarial suite: keyed-band-mixer identity/differential proofs,
# the crafted-collision degradation regression, the admission-control
# suite (identical decisions under benign traffic, flood isolation,
# key churn, POST /v1/refresh charged one token per ledger and denied
# with no upstream call), the singleflight herd leader-failure
# contract, and the takedown/revalidation/upload torn-state hammer,
# named under -race. The adversary harness itself runs at quick scale
# in AdversaryQuickDeterministicAndGated.
go test -race -run 'BandMixer|CraftedCollisions|KeyedIndexedLinearDifferential' \
    ./internal/phash ./internal/aggregator
go test -race -run 'Admission|ClientKey|Singleflight' ./internal/proxy
go test -race -run 'TakedownRevalidateUploadHammer' ./internal/aggregator
go test -race -run 'AdversaryQuickDeterministicAndGated' ./cmd/irs-bench

# Fuzz the admission token accounting (clock skew, key churn, cost
# interleavings; the exact-budget over-admission bound): ten seconds.
# Anchored because -fuzz matches by prefix and FuzzAdmission* share one.
go test -run='^$' -fuzz='^FuzzAdmissionAccounting$' -fuzztime=10s ./internal/proxy

echo "check.sh: all green in $(($(date +%s) - start)) s"
