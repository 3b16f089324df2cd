#!/bin/sh
# Repository check gate: formatting, vet, and the full test suite under
# the race detector. The parallel layer's determinism tests run at
# several worker counts regardless of the host's core count, so a pass
# here covers single-core CI machines too.
set -eu
cd "$(dirname "$0")/.."

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

# The batch endpoint's framing: hostile length prefixes and frame counts
# are 400s that allocate by what was sent, not by what was claimed.
go test -race -run 'ServerBatchUpload' ./internal/aggregator

# Upload pipeline: ordered-commit determinism against the serial path,
# cancellation drain (mid-window included), poisoned-item isolation,
# and the batching status stage (request count as a function of the
# input at workers 1/4/8, per-batch fault parity, a slow batch not
# stalling compute, the per-batch deadline), then the claim answer's
# first proof end to end: ledger, wire (mixed versions), and the
# aggregator's one-Status fallback. Named under -race.
go test -race -run 'PipelineDecisionsMatchSerial|PipelineCancellationDrains|PipelinePoisonedItem|PipelineStatus|VideoUploadWorkerInvariance|CustodialClaimUsesReceiptProof' \
    ./internal/aggregator
go test -race -run 'ClaimProofMatchesStatus|ClaimCarriesFirstProof|ClaimProofMixedVersions' \
    ./internal/ledger ./internal/wire

# Watermark reader: the single-coefficient DCT kernels against
# Forward8, and the sliding kernel + CRC-first sweep against the
# retained full-transform per-phase scan (all 64 pixel phases, four
# config shapes, the E6 transform matrix, worker counts 1/2/4/8), named
# under -race; then ten seconds of the size/crop fuzz target.
go test -race -run 'Coef8BitIdentical|RowPass8Bounds|SearchPixelPhaseBitIdentical|ExtractMatchesReference|AssembleMatchesSlotOrder|EmbedExtractWorkerInvariance' \
    ./internal/dct ./internal/watermark
go test -run='^$' -fuzz=FuzzExtractMatchesReference -fuzztime=10s ./internal/watermark

# Storage engine: group-commit coalescing, crash-injection recovery at
# shard counts 1/8/32, torn-tail truncation, shard/in-memory state
# equivalence, the legacy-directory refusal, and the HTTP-wired restart
# hammer — all named under the race detector. With them the validation
# path's per-second proof memo (byte identity with a fresh Sign, state
# flips inside one second, rollover, cap, the StatusBatch/Apply/flush
# hammer), the state-only segment read against the decoding one, and
# the claim-frame golden that pins segment and WAL bytes.
go test -race -run 'GroupCommit|WALSyncOS|Crash|TornTail|RecoveryRemovesOrphans|MidFileCorruptionRefused|EngineMismatchRefused|SegmentReopenShardAndEngineEquivalence|SegmentBackgroundFlushAndCompaction|StateHash|ProofMemo|StatusBatchMatchesSerial|LookupStateMatchesLookup|ClaimFrameGolden' \
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

# Storage-engine bench smoke: a size-bounded run whose equivalence gate
# still compares the segment ledger's StateHash (live and reopened)
# with an in-memory ledger's before any timing. The committed
# BENCH_storage.json (10M claims, seed 42) is the recorded comparison
# against the removed JSON-lines engine and is not regenerated.
go run ./cmd/irs-bench -storage -storage-out /tmp/irs_storage_smoke.json \
    -storage-claims 50000 -storage-equiv 10000 -storage-reads 2000 \
    -storage-memtable 16384

# Multi-tier filter distribution and ledger replication: the topology
# package suite (tier chaining, base-mismatch fallback, checkpoint
# gate, anti-entropy resync) plus the named sync-protocol regressions
# in bloom/ledger/wire/proxy, all under the race detector.
go test -race ./internal/topology
go test -race -run 'FilterSync|DeltaV2|UpdateCrossover|ApplyUpdate|RefreshFiltersSurvivesFilterRebuild|RefreshFiltersDetectsBaseMismatch|RestoreRecordsClearsRevokedIndex|CacheStaleBoundary' \
    ./internal/bloom ./internal/ledger ./internal/wire ./internal/proxy

# Fuzz the delta decoder (varint/gap parsing, v2 hash frames): ten
# seconds over the seeded corpus plus fresh mutations. The pattern is
# anchored because -fuzz matches by prefix and FuzzApply* share one.
go test -run='^$' -fuzz='^FuzzApplyUpdate$' -fuzztime=10s ./internal/bloom

# Topology bench smoke: a size-bounded virtual-time run; the harness
# exits nonzero if any replica fails the StateHash gate. The committed
# artifact is BENCH_topology.json (1.2M browsers, seed 42).
go run ./cmd/irs-bench -topology -topology-out /tmp/irs_topology_smoke.json \
    -topology-browsers 20000 -topology-ids 4000 -topology-window 300 \
    -topology-intervals 30,60 -topology-revokes 8 -topology-sample 2

# Observability layer: the metrics-conservation invariant end to end,
# the chaos obs determinism replay, and the obs package's own suite,
# all under the race detector.
go test -race -run 'MetricsConservation' ./internal/integration
go test -race -run 'ChaosObsDeterminism' ./cmd/irs-bench
go test -race ./internal/obs

# Fuzz the Prometheus exposition writer and the histogram: ten seconds
# each over the seeded corpus plus fresh mutations.
go test -run='^$' -fuzz=FuzzPrometheusText -fuzztime=10s ./internal/obs
go test -run='^$' -fuzz=FuzzHistogramObserve -fuzztime=10s ./internal/obs

# IRSW1 binary wire codec: the codec roundtrip/negotiation suite, the
# mixed-version compat pins (binary client vs JSON-only server and the
# upgrade-then-rollback path, at both the wire and proxy layers), the
# hostile-frame TransportError classification, and the keep-alive pool
# sizing, all named under the race detector.
go test -race -run 'Binary|ProxyClientCodecsAgree|ProxyClientAgainstLegacyProxy|KeepAliveReuseAtHighConcurrency' \
    ./internal/wire ./internal/proxy

# Fuzz the IRSW1 frame decoder (length prefix, CRC, per-kind payload
# parsers): ten seconds over the seeded corpus plus fresh mutations.
go test -run='^$' -fuzz=FuzzWireFrameDecode -fuzztime=10s ./internal/wire

# Serving-path benchmarks compile and run once each (not timed here —
# BENCH_serving.json is the committed artifact); then a tiny closed-loop
# smoke of the load harness itself, kept out of the repo. The smoke runs
# both wire codecs, so the identical-decisions-and-proofs gate and the
# binary arms execute on every check.
go test -run='^$' -bench=Serving -benchtime=1x ./internal/ledger ./internal/proxy
go run ./cmd/irs-bench -serve -serve-out /tmp/irs_serve_smoke.json \
    -serve-workers 2 -serve-ids 256 -serve-batch 16 -serve-pages 4 \
    -wire json,binary

# Chaos-arm smoke: a miniature outage run; the committed artifact is
# BENCH_chaos.json (full scale, seed 42).
go run ./cmd/irs-bench -chaos -chaos-out /tmp/irs_chaos_smoke.json \
    -serve-workers 2 -serve-ids 256 -serve-batch 16 -serve-pages 20

# Derivative-lookup smoke: tiny sweep, but the harness still asserts
# all arms return identical results for every probe; the committed
# artifact is BENCH_lookup.json (default sizes, seed 42).
go test -run='^$' -bench=BenchmarkLookup -benchtime=1x .
go run ./cmd/irs-bench -lookup -lookup-out /tmp/irs_lookup_smoke.json \
    -lookup-sizes 4000,20000 -lookup-workers 1,4 -lookup-probes 300

# Upload-ingest smoke: a tiny batch×workers sweep; the harness exits
# nonzero if the pipeline's decision sequence diverges from serial at
# any worker count. The committed artifact is BENCH_upload.json.
go run ./cmd/irs-bench -upload -upload-out /tmp/irs_upload_smoke.json \
    -upload-batches 24 -upload-workers 1,4

# Zero-alloc guard: the vectorized 8×8 DCT, the three perceptual
# hashes, and the IRSW1 wire codec's server-encode and client-decode
# hot paths must stay allocation-free; any allocs/op > 0 here means a
# scratch pool, unrolled loop, or pooled codec buffer regressed.
for pkg_bench in "./internal/dct BenchmarkDCT8x8" "./internal/phash BenchmarkPHash$" \
    "./internal/wire BenchmarkStatusEncodeBinary" "./internal/wire BenchmarkStatusDecodeBinary"; do
    pkg=${pkg_bench% *}
    bench=${pkg_bench#* }
    out=$(go test -run='^$' -bench="$bench" -benchtime=10x -benchmem "$pkg")
    echo "$out" | grep Benchmark
    if echo "$out" | grep Benchmark | awk '{for (i=1;i<=NF;i++) if ($i=="allocs/op" && $(i-1)+0>0) exit 1}'; then :; else
        echo "check.sh: kernel benchmark $bench in $pkg allocates" >&2
        exit 1
    fi
done

# Bounds-check-elimination guard for the unrolled kernels.
sh scripts/check_bce.sh

# Observability overhead gate: the harness itself fails when the
# instrumented arm's min-of-reps p99 lands more than 5% above the bare
# one; the committed artifact is BENCH_obs.json.
go test -run='^$' -bench=BenchmarkValidateObs -benchtime=1x .
go run ./cmd/irs-bench -obs-compare -obs-out /tmp/irs_obs_smoke.json \
    -serve-workers 2 -serve-ids 256 -serve-batch 16 -serve-pages 600

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

# Adversarial suite: keyed-band-mixer identity/differential proofs,
# the crafted-collision degradation regression, the admission-control
# suite (identical decisions under benign traffic, flood isolation,
# key churn), the singleflight herd leader-failure contract, and the
# takedown/revalidation/upload torn-state hammer, named under -race.
go test -race -run 'BandMixer|CraftedCollisions|KeyedIndexedLinearDifferential' \
    ./internal/phash ./internal/aggregator
go test -race -run 'Admission|ClientKey|Singleflight' ./internal/proxy
go test -race -run 'TakedownRevalidateUploadHammer' ./internal/aggregator
go test -race -run 'AdversaryQuickDeterministicAndGated' ./cmd/irs-bench

# Fuzz the admission token accounting (clock skew, key churn, cost
# interleavings; the exact-budget over-admission bound): ten seconds.
# Anchored because -fuzz matches by prefix and FuzzAdmission* share one.
go test -run='^$' -fuzz='^FuzzAdmissionAccounting$' -fuzztime=10s ./internal/proxy

# Adversary smoke: quick-scale seeded attacks with benign control
# twins. The identical-decisions gates (keyed index == linear oracle,
# admission as a pure front door) and same-seed trace stability are
# enforced on every run; the wall-clock envelope gates are asserted by
# the committed full-scale run (BENCH_adversary.json, seed 42).
go run ./cmd/irs-bench -adversary -adversary-scale quick \
    -adversary-enforce=false -adversary-out /tmp/irs_adversary_smoke.json

echo "check.sh: all green"
