package main

import (
	"fmt"
	"testing"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/proxy"
)

// TestChaosObsDeterminism is the fault-replay regression for the
// observability layer: two same-seed chaos runs must produce identical
// request/outcome trace hashes at every worker count, and — because the
// validator's latency histograms observe the injected barrier clock,
// not wall time — a single-worker run must reproduce its entire obs
// registry byte for byte in Prometheus text. At higher worker counts
// only the scheduling-independent metric view is pinned (see
// chaosMetricsKey): the breaker trip point and cache races
// legitimately move counts between columns of a group, never across
// groups.
func TestChaosObsDeterminism(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := chaosConfig{
				Workers: workers,
				IDs:     128,
				Batch:   8,
				Pages:   12,
				Revoked: 0.1,
				Zipf:    1.1,
				Outage:  0.25,
				Seed:    42,
			}
			backend, err := setupServeLedger(cfg.serveConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer backend.close()
			truth := make(map[ids.PhotoID]ledger.State, len(backend.ids))
			for _, id := range backend.ids {
				p, err := backend.direct.Status(id)
				if err != nil {
					t.Fatal(err)
				}
				truth[id] = p.State
			}
			spec := chaosSpec{"fail-open-fresh/retry+breaker", true, true, proxy.DegradeFailOpenFresh}

			first, err := runChaosOnce(cfg, backend, spec, truth)
			if err != nil {
				t.Fatal(err)
			}
			second, err := runChaosOnce(cfg, backend, spec, truth)
			if err != nil {
				t.Fatal(err)
			}
			if first.traceHash != second.traceHash {
				t.Fatalf("trace hash diverged: %s vs %s", first.traceHash, second.traceHash)
			}
			if k1, k2 := chaosMetricsKey(first.snap), chaosMetricsKey(second.snap); k1 != k2 {
				t.Fatalf("stable metric view diverged:\n  %s\n  %s", k1, k2)
			}
			if workers == 1 && first.promText != second.promText {
				t.Fatalf("single-worker registry not byte-identical:\n--- first ---\n%s\n--- second ---\n%s",
					first.promText, second.promText)
			}
		})
	}
}
