package irs

// One benchmark per paper claim: each wraps the corresponding
// experiment from internal/expt (the E1–E10 index in DESIGN.md) and
// prints its regenerated table once per run.
//
// Benchmarks run the Quick workload so `go test -bench=. -benchmem`
// stays fast; the committed EXPERIMENTS.md numbers come from the full
// workload via `go run ./cmd/irs-bench -run all -scale full`.

import (
	"crypto/ed25519"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"os"
	"sync"
	"testing"

	"irs/internal/aggregator"
	"irs/internal/expt"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/phash"
	"irs/internal/proxy"
)

var printOnce sync.Map

func runExperiment(b *testing.B, id string) {
	b.Helper()
	run, ok := expt.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		report, err := run(expt.Quick, 42)
		if err != nil {
			b.Fatal(err)
		}
		if _, printed := printOnce.LoadOrStore(id, true); !printed {
			b.StopTimer()
			report.Fprint(os.Stdout)
			b.StartTimer()
		}
	}
}

// BenchmarkE1BloomSizing regenerates §4.4's filter sizing table: the
// paper's 8.59 bits/key ratio yields ~2% false hits at every scale,
// including the 1 GB/1 B and 100 GB/100 B headline points.
func BenchmarkE1BloomSizing(b *testing.B) { runExperiment(b, "e1") }

// BenchmarkE2LedgerLoad regenerates §4.4's load table: the revocation
// filter cuts ledger queries by the paper's ~50x.
func BenchmarkE2LedgerLoad(b *testing.B) { runExperiment(b, "e2") }

// BenchmarkE3ViewingLatency regenerates §4.3's relative-overhead table
// against the Web Almanac render-time distribution.
func BenchmarkE3ViewingLatency(b *testing.B) { runExperiment(b, "e3") }

// BenchmarkE4PipelinedChecks regenerates §4.3's pinterest claim: zero
// added render delay while checks complete within 250 ms.
func BenchmarkE4PipelinedChecks(b *testing.B) { runExperiment(b, "e4") }

// BenchmarkE5DeltaUpdates regenerates §4.4's hourly delta-encoded
// filter update traffic table.
func BenchmarkE5DeltaUpdates(b *testing.B) { runExperiment(b, "e5") }

// BenchmarkE6Robustness regenerates Goal #5's label-survival matrix
// across compression, cropping, tinting, noise, and metadata stripping.
func BenchmarkE6Robustness(b *testing.B) { runExperiment(b, "e6") }

// BenchmarkE7Appeals regenerates §5's attack analysis: the re-claim
// attack succeeds pre-appeal and the appeals process kills it.
func BenchmarkE7Appeals(b *testing.B) { runExperiment(b, "e7") }

// BenchmarkE8Adoption regenerates the TET sweep: first-mover share ×
// liability weight → incumbent adoption timing.
func BenchmarkE8Adoption(b *testing.B) { runExperiment(b, "e8") }

// BenchmarkE9EndToEnd regenerates the §4.3 prototype measurement over
// real loopback HTTP: claim/revoke/validate latency and scroll cost.
func BenchmarkE9EndToEnd(b *testing.B) { runExperiment(b, "e9") }

// BenchmarkE10Scrolling regenerates the scroll-session sweep: checks
// stay invisible at human scroll speeds (§4.3's prototype observation).
func BenchmarkE10Scrolling(b *testing.B) { runExperiment(b, "e10") }

// BenchmarkAblationFilters compares standard/blocked Bloom and xor
// filters at the paper's sizing (DESIGN.md ablation).
func BenchmarkAblationFilters(b *testing.B) { runExperiment(b, "ablation-filters") }

// BenchmarkAblationWatermark sweeps QIM strength Δ against distortion
// and JPEG survival (DESIGN.md ablation).
func BenchmarkAblationWatermark(b *testing.B) { runExperiment(b, "ablation-watermark") }

// BenchmarkAblationPropagation quantifies revocation propagation delay
// across snapshot/refresh/TTL settings (the paper's Nongoal #4).
func BenchmarkAblationPropagation(b *testing.B) { runExperiment(b, "ablation-propagation") }

// lookupBenchDB builds a SigIndex with n random signatures plus a
// miss-dominated probe stream; shared by the derivative-lookup
// benchmarks so linear and indexed time the same data.
func lookupBenchDB(b *testing.B, n int) (*aggregator.SigIndex, []phash.Signature) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	sig := func() phash.Signature {
		return phash.Signature{
			A: phash.Hash(rng.Uint64()),
			D: phash.Hash(rng.Uint64()),
			P: phash.Hash(rng.Uint64()),
		}
	}
	sigs := make([]phash.Signature, n)
	pids := make([]ids.PhotoID, n)
	for i := range sigs {
		sigs[i] = sig()
		pids[i].Ledger = 1
		binary.BigEndian.PutUint64(pids[i].Rec[:8], uint64(i))
	}
	idx := aggregator.NewSigIndex(aggregator.IndexConfig{})
	idx.AddAll(sigs, pids)
	probes := make([]phash.Signature, 256)
	for i := range probes {
		probes[i] = sig()
	}
	return idx, probes
}

// BenchmarkLookupLinear times the O(n) reference scan of the
// derivative defense at a 50k-entry hash DB (PR 4 tentpole baseline).
func BenchmarkLookupLinear(b *testing.B) {
	idx, probes := lookupBenchDB(b, 50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.LookupLinear(probes[i%len(probes)])
	}
}

// BenchmarkLookupIndexed times the multi-index Hamming lookup on the
// same DB.
func BenchmarkLookupIndexed(b *testing.B) {
	idx, probes := lookupBenchDB(b, 50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Lookup(probes[i%len(probes)])
	}
}

// obsBenchValidator builds a validator over a one-claim in-memory
// ledger with the whole (tiny) population cached, so the benchmark
// loop times the cache-hit fast path — the hottest validation path and
// the one the obs layer must not tax. reg nil is the obs-off arm.
func obsBenchValidator(b *testing.B, reg *obs.Registry) (*proxy.Validator, ids.PhotoID) {
	b.Helper()
	l, err := ledger.New(ledger.Config{ID: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	pub, priv, err := ed25519.GenerateKey(crand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	h := sha256.Sum256([]byte("obs-bench"))
	rec, err := l.Claim(h, pub, ed25519.Sign(priv, ledger.ClaimMsg(h)), false)
	if err != nil {
		b.Fatal(err)
	}
	v := proxy.NewValidator(proxy.Config{CacheCapacity: 64, Obs: reg},
		func(_ ids.LedgerID, batch []ids.PhotoID) ([]*ledger.StatusProof, error) { return l.StatusBatch(batch) })
	if _, err := v.Validate(rec.ID); err != nil {
		b.Fatal(err)
	}
	return v, rec.ID
}

// BenchmarkValidateObsOff times the cache-hit validation path with no
// shared registry — the seed-cost baseline (two atomic adds, no clock
// reads).
func BenchmarkValidateObsOff(b *testing.B) {
	v, id := obsBenchValidator(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Validate(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidateObsOn times the same path with a registry attached:
// the outcome counters plus a per-outcome latency observation. This
// pair shows the per-call cost; proxy.TestObsAddsNoAllocations gates
// that the registry adds no allocation, and the benchmark's
// trace.overhead_pct reports the end-to-end share.
func BenchmarkValidateObsOn(b *testing.B) {
	v, id := obsBenchValidator(b, obs.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Validate(id); err != nil {
			b.Fatal(err)
		}
	}
}
