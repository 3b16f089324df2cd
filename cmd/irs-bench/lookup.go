package main

// The -lookup arm measures the derivative-defense hot path: resolving
// an upload's perceptual signature against the aggregator's robust-hash
// database. It sweeps DB size × lookup arm × client workers:
//
//	linear     the O(n) reference scan (the pre-index serving path)
//	indexed    the multi-index Hamming index at its default band count
//	indexed11  the classic 11-exact-band decomposition (ablation: its
//	           6-bit buckets stay dense, so it loses to wider bands as
//	           soon as the DB outgrows 2^6 × a small constant)
//
// All arms run against the same SigIndex snapshot, so the comparison
// is honest (both pay the tombstone check) and the harness can assert
// the arms return identical results for every probe before any timing
// is trusted. Workers are concurrent client goroutines — the upload
// frontend's concurrency, not the internal pool width.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"irs/internal/aggregator"
	"irs/internal/ids"
	"irs/internal/phash"
)

type lookupConfig struct {
	Out     string
	Sizes   []int
	Workers []int
	Probes  int
	HitFrac float64
	Seed    int64
}

type lookupRow struct {
	Size             int     `json:"size"`
	Arm              string  `json:"arm"`
	Bands            int     `json:"bands,omitempty"`
	Workers          int     `json:"workers"`
	BuildMs          float64 `json:"build_ms,omitempty"`
	NsPerLookup      float64 `json:"ns_per_lookup"`
	LookupsPerSec    float64 `json:"lookups_per_sec"`
	SpeedupVsLinear  float64 `json:"speedup_vs_linear,omitempty"`
	Hits             int     `json:"hits"`
	IndexedEntries   int     `json:"indexed_entries,omitempty"`
	TombstonedAlive  int     `json:"tombstoned,omitempty"`
	ResultsIdentical bool    `json:"results_identical"`
}

type lookupReport struct {
	Seed             int64       `json:"seed"`
	GOMAXPROCS       int         `json:"gomaxprocs"`
	Probes           int         `json:"probes"`
	HitFraction      float64     `json:"hit_fraction"`
	ResultsIdentical bool        `json:"results_identical"`
	Rows             []lookupRow `json:"rows"`
}

func lookupID(n int) ids.PhotoID {
	var id ids.PhotoID
	id.Ledger = ids.LedgerID(n%8 + 1)
	binary.BigEndian.PutUint64(id.Rec[:8], uint64(n))
	return id
}

func lookupSig(rng *rand.Rand) phash.Signature {
	return phash.Signature{
		A: phash.Hash(rng.Uint64()),
		D: phash.Hash(rng.Uint64()),
		P: phash.Hash(rng.Uint64()),
	}
}

// perturbHash flips exactly d distinct bits.
func perturbHash(rng *rand.Rand, h phash.Hash, d int) phash.Hash {
	for _, bit := range rng.Perm(64)[:d] {
		h ^= 1 << uint(bit)
	}
	return h
}

type lookupArm struct {
	name   string
	bands  int // 0 = linear
	lookup func(phash.Signature) (ids.PhotoID, bool)
	build  time.Duration
	stats  aggregator.IndexStats
}

func runLookup(cfg lookupConfig) error {
	report := lookupReport{
		Seed:             cfg.Seed,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Probes:           cfg.Probes,
		HitFraction:      cfg.HitFrac,
		ResultsIdentical: true,
	}
	for _, size := range cfg.Sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(size)))
		sigs := make([]phash.Signature, size)
		pids := make([]ids.PhotoID, size)
		for i := range sigs {
			sigs[i] = lookupSig(rng)
			pids[i] = lookupID(i)
		}

		// Probes are miss-dominated (most uploads are not derivatives of
		// hosted content); hits are near-threshold derivatives, the
		// hardest true positives.
		probes := make([]phash.Signature, cfg.Probes)
		for i := range probes {
			if rng.Float64() < cfg.HitFrac {
				base := sigs[rng.Intn(size)]
				probes[i] = phash.Signature{
					A: perturbHash(rng, base.A, 9),
					D: perturbHash(rng, base.D, 10),
					P: perturbHash(rng, base.P, 40),
				}
			} else {
				probes[i] = lookupSig(rng)
			}
		}

		arms := []*lookupArm{
			{name: "linear"},
			{name: "indexed", bands: aggregator.DefaultIndexBands},
			{name: "indexed11", bands: phash.NumBands},
		}
		// One shared index serves the linear reference; the indexed arms
		// get their own build so BuildMs is per-decomposition. A sprinkle
		// of takedowns keeps every arm honest about tombstone checks.
		tombstones := size / 200
		for _, arm := range arms {
			bands := arm.bands
			if bands == 0 {
				bands = aggregator.DefaultIndexBands
			}
			start := time.Now()
			idx := aggregator.NewSigIndex(aggregator.IndexConfig{Bands: bands})
			idx.AddAll(sigs, pids)
			for i := 0; i < tombstones; i++ {
				idx.Remove(lookupID(i * 100))
			}
			arm.build = time.Since(start)
			arm.stats = idx.Stats()
			if arm.name == "linear" {
				arm.lookup = idx.LookupLinear
			} else {
				arm.lookup = idx.Lookup
			}
		}

		// Correctness gate: every arm must agree on every probe before
		// its timings mean anything.
		type outcome struct {
			id ids.PhotoID
			ok bool
		}
		ref := make([]outcome, len(probes))
		for i, p := range probes {
			id, ok := arms[0].lookup(p)
			ref[i] = outcome{id: id, ok: ok}
		}
		for _, arm := range arms[1:] {
			for i, p := range probes {
				id, ok := arm.lookup(p)
				if ok != ref[i].ok || id != ref[i].id {
					report.ResultsIdentical = false
					return fmt.Errorf("size %d: arm %s disagrees with linear on probe %d: (%v,%v) != (%v,%v)",
						size, arm.name, i, id, ok, ref[i].id, ref[i].ok)
				}
			}
		}

		linearNs := map[int]float64{}
		for _, arm := range arms {
			for _, workers := range cfg.Workers {
				elapsed, hits := timeLookups(arm.lookup, probes, workers)
				ns := float64(elapsed.Nanoseconds()) / float64(len(probes))
				row := lookupRow{
					Size:             size,
					Arm:              arm.name,
					Bands:            arm.bands,
					Workers:          workers,
					BuildMs:          float64(arm.build.Microseconds()) / 1000,
					NsPerLookup:      ns,
					LookupsPerSec:    float64(len(probes)) / elapsed.Seconds(),
					Hits:             hits,
					IndexedEntries:   arm.stats.Indexed,
					TombstonedAlive:  arm.stats.Dead,
					ResultsIdentical: true,
				}
				if arm.name == "linear" {
					linearNs[workers] = ns
				} else if base := linearNs[workers]; base > 0 {
					row.SpeedupVsLinear = base / ns
				}
				report.Rows = append(report.Rows, row)
				fmt.Printf("size=%-7d arm=%-9s workers=%-2d %10.0f ns/lookup %12.0f lookups/s",
					size, arm.name, workers, row.NsPerLookup, row.LookupsPerSec)
				if row.SpeedupVsLinear > 0 {
					fmt.Printf("  %5.1fx vs linear", row.SpeedupVsLinear)
				}
				fmt.Println()
			}
		}
	}
	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.Out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", cfg.Out)
	return nil
}

// timeLookups drives the probe list through the lookup function from
// `workers` concurrent client goroutines (disjoint contiguous shares)
// and returns wall-clock plus total hits.
func timeLookups(lookup func(phash.Signature) (ids.PhotoID, bool), probes []phash.Signature, workers int) (time.Duration, int) {
	if workers < 1 {
		workers = 1
	}
	hits := make([]int, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		lo := w * len(probes) / workers
		hi := (w + 1) * len(probes) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			h := 0
			for _, p := range probes[lo:hi] {
				if _, ok := lookup(p); ok {
					h++
				}
			}
			hits[w] = h
		}(w, lo, hi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := 0
	for _, h := range hits {
		total += h
	}
	return elapsed, total
}

// parseIntList parses a comma-separated integer list flag.
func parseIntList(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad %s entry %q", flagName, part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s is empty", flagName)
	}
	return out, nil
}
