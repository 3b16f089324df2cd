package aggregator

import (
	"math/rand"
	"testing"

	"irs/internal/obs"
	"irs/internal/parallel"
	"irs/internal/phash"
)

// TestKeyedIndexedLinearDifferential pins the keying correctness
// claim: for several explicit band keys (and the unkeyed baseline),
// at workers 1, 4 and 8, the keyed index answers every probe — random
// misses, near-threshold hits, and the crafted-collision corpus —
// byte-identically to the linear reference scan. The mixer is a
// Hamming isometry, so the key must never change a result, only the
// bucket layout.
func TestKeyedIndexedLinearDifferential(t *testing.T) {
	const n = 2500
	configs := []IndexConfig{
		{unkeyed: true, maxTail: 256},
		{BandKey: 1, maxTail: 256},
		{BandKey: 42, maxTail: 256},
		{BandKey: 0xdeadbeefcafef00d, maxTail: 256},
	}
	for _, cfg := range configs {
		rng := rand.New(rand.NewSource(4242))
		idx := NewSigIndex(cfg)
		sigs := make([]phash.Signature, 0, n)
		for i := 0; i < n; i++ {
			sig := randSig(rng)
			if i%5 == 0 && i > 0 {
				sig = sigs[rng.Intn(len(sigs))]
			}
			sigs = append(sigs, sig)
			idx.Add(sig, testID(i))
		}
		flood, floodProbes := phash.CraftedCollisions(7, idx.stats().Bands, 400, 40)
		for i, sig := range flood {
			idx.Add(sig, testID(n+i))
		}
		if st := idx.stats(); st.Indexed == 0 {
			t.Fatalf("key=%#x unkeyed=%v: index never rebuilt: %+v", cfg.BandKey, cfg.unkeyed, st)
		}

		probes := make([]phash.Signature, 0, 800)
		for i := 0; i < 180; i++ {
			base := sigs[rng.Intn(n)]
			probes = append(probes,
				nearProbe(rng, base, 9, 10, 40),
				nearProbe(rng, base, 10, 11, 40),
				nearProbe(rng, base, 11, 9, 10),
				randSig(rng),
			)
		}
		probes = append(probes, floodProbes...)

		for _, w := range []int{1, 4, 8} {
			prev := parallel.SetWorkers(w)
			for pi, p := range probes {
				gotID, gotOK := idx.Lookup(p)
				wantID, wantOK := idx.LookupLinear(p)
				if gotOK != wantOK || gotID != wantID {
					parallel.SetWorkers(prev)
					t.Fatalf("key=%#x unkeyed=%v workers=%d probe %d: indexed (%v,%v) != linear (%v,%v)",
						cfg.BandKey, cfg.unkeyed, w, pi, gotID, gotOK, wantID, wantOK)
				}
			}
			parallel.SetWorkers(prev)
		}
	}
}

// floodCandidateLoad builds an index over a benign population plus the
// crafted-collision corpus and returns the mean banded-candidate count
// per flood probe, measured through the index's own obs counters (a
// scheduling-free proxy for lookup cost: every candidate is one exact
// signature verification).
func floodCandidateLoad(t *testing.T, cfg IndexConfig, benign, flood, probes []phash.Signature) float64 {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.obs = reg
	cfg.maxTail = 256
	idx := NewSigIndex(cfg)
	for i, sig := range benign {
		idx.Add(sig, testID(i))
	}
	for i, sig := range flood {
		idx.Add(sig, testID(len(benign)+i))
	}
	// Flush the tail so every probe runs against the band tables.
	if st := idx.stats(); st.Tail > 0 {
		extra := rand.New(rand.NewSource(555))
		for i := 0; i < cfg.maxTail; i++ {
			idx.Add(randSig(extra), testID(len(benign)+len(flood)+i))
		}
	}
	for _, p := range probes {
		if _, ok := idx.Lookup(p); ok {
			t.Fatal("flood probe unexpectedly matched — corpus construction broken")
		}
	}
	cand, _ := obs.Value(reg.Snapshot(), "irs_index_candidates_total")
	return cand / float64(len(probes))
}

// TestCraftedCollisionsDegradeUnkeyedNotKeyed is the regression the
// keyed band mixer is gated on: the crafted corpus must blow the
// unkeyed index's candidate sets up to the corpus size (every flooded
// entry verified on every probe), while the keyed index stays within a
// small multiple of the benign load. A benign twin of each index holds
// as many random signatures in place of the flood, and answers the same
// probes: the flood must cost the unkeyed index at least 10× its twin's
// candidates. Candidate counts, not wall clock, so the assertions are
// stable on any CI machine. The keyed index's load still grows with the
// flood (3.6× its twin here), so no bound ties it to its twin.
func TestCraftedCollisionsDegradeUnkeyedNotKeyed(t *testing.T) {
	const nBenign, nFlood, nProbes = 6000, 3000, 200
	rng := rand.New(rand.NewSource(31337))
	benign := make([]phash.Signature, nBenign)
	for i := range benign {
		benign[i] = randSig(rng)
	}
	flood, probes := phash.CraftedCollisions(7, DefaultIndexBands, nFlood, nProbes)

	twin := make([]phash.Signature, nFlood)
	for i := range twin {
		twin[i] = randSig(rng)
	}

	unkeyed := floodCandidateLoad(t, IndexConfig{unkeyed: true}, benign, flood, probes)
	keyed := floodCandidateLoad(t, IndexConfig{BandKey: 42}, benign, flood, probes)
	unkeyedTwin := floodCandidateLoad(t, IndexConfig{unkeyed: true}, benign, twin, probes)
	keyedTwin := floodCandidateLoad(t, IndexConfig{BandKey: 42}, benign, twin, probes)
	t.Logf("candidates/probe: unkeyed %.1f (twin %.1f), keyed %.1f (twin %.1f)", unkeyed, unkeyedTwin, keyed, keyedTwin)

	if unkeyed < float64(nFlood) {
		t.Fatalf("unkeyed index not degraded: %.1f candidates/probe, want >= %d (the whole corpus)", unkeyed, nFlood)
	}
	if keyed*10 > unkeyed {
		t.Fatalf("keyed index degraded too: %.1f candidates/probe vs %.1f unkeyed (want >=10x reduction)", keyed, unkeyed)
	}
	if unkeyed < 10*unkeyedTwin {
		t.Fatalf("flood costs the unkeyed index %.1f candidates/probe, its benign twin %.1f: want >= 10x", unkeyed, unkeyedTwin)
	}
}
