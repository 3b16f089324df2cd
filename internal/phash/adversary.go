package phash

// Attack-corpus construction for the index's adversarial tests
// (internal/aggregator). This models the
// bucket-density DoS an uploader can mount against an unkeyed band
// index: because the band layout in bands.go is public, the attacker
// fixes one band value per hash kind and randomizes everything else.
// Every crafted signature lands in the same (kind, band) bucket for
// two of the three kinds, so any probe sharing those band values marks
// the entire corpus as candidates (candidate = marked by ≥2 kinds),
// and — since the random remaining bits keep every pair far outside
// the match threshold — the lookup verifies all of them before
// answering "miss". Lookup cost degrades from O(bucket) to O(corpus).
//
// Against a keyed index (BandMixer) the same corpus is harmless: the
// fixed bits scatter across the mixed band layout, so bucket densities
// return to the benign uniform regime.
// TestCraftedCollisionsDegradeUnkeyedNotKeyed measures exactly that
// contrast.

import "math/rand"

// CraftedCollisions builds a hash-flooding corpus of n signatures and
// p probe signatures targeting the unkeyed band layout with the given
// band count: every probe shares band 0 of kinds A and D with every
// corpus signature, while all remaining bits are random, so no pair is
// within the match threshold. Deterministic in seed.
func CraftedCollisions(seed int64, bands, n, p int) (corpus, probes []Signature) {
	rng := rand.New(rand.NewSource(seed))
	shift := uint(BandShift(0, bands))
	width := uint(BandWidth(0, bands))
	mask := uint64(1)<<width - 1
	fixedA := rng.Uint64() & mask
	fixedD := rng.Uint64() & mask
	craft := func() Signature {
		return Signature{
			A: Hash(rng.Uint64()&^(mask<<shift) | fixedA<<shift),
			D: Hash(rng.Uint64()&^(mask<<shift) | fixedD<<shift),
			P: Hash(rng.Uint64()),
		}
	}
	corpus = make([]Signature, n)
	for i := range corpus {
		corpus[i] = craft()
	}
	probes = make([]Signature, p)
	for i := range probes {
		probes[i] = craft()
	}
	return corpus, probes
}
