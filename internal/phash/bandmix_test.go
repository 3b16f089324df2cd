package phash

import (
	"math/rand"
	"testing"
)

// The mixer must be a Hamming isometry: that is the whole proof that a
// keyed index returns linear-scan answers for any key.
func TestBandMixerPreservesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, key := range []uint64{0, 1, 42, 0xdeadbeefcafef00d, ^uint64(0)} {
		m := NewBandMixer(key)
		for i := 0; i < 2000; i++ {
			a, b := Hash(rng.Uint64()), Hash(rng.Uint64())
			if got, want := Distance(Hash(m.Mix(a)), Hash(m.Mix(b))), Distance(a, b); got != want {
				t.Fatalf("key %#x: Distance(Mix(a),Mix(b)) = %d, want %d (a=%#x b=%#x)", key, got, want, a, b)
			}
		}
	}
}

// The table-compiled Mix must equal the definitional permute-then-XOR:
// each single-bit input difference moves exactly one output bit, and
// distinct bits move to distinct positions (bijectivity).
func TestBandMixerIsBitPermutation(t *testing.T) {
	m := NewBandMixer(0x5eed)
	base := m.Mix(0)
	seen := make(map[uint64]int)
	for i := 0; i < 64; i++ {
		d := m.Mix(Hash(1)<<uint(i)) ^ base
		if popcount := Distance(Hash(d), 0); popcount != 1 {
			t.Fatalf("bit %d maps to %d output bits", i, popcount)
		}
		if prev, dup := seen[d]; dup {
			t.Fatalf("bits %d and %d map to the same output position", prev, i)
		}
		seen[d] = i
	}
}

func TestBandMixerDeterministicAndKeyed(t *testing.T) {
	a1, a2 := NewBandMixer(7), NewBandMixer(7)
	b := NewBandMixer(8)
	differs := false
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 256; i++ {
		h := Hash(rng.Uint64())
		if a1.Mix(h) != a2.Mix(h) {
			t.Fatalf("same key, different mix for %#x", h)
		}
		if a1.Mix(h) != b.Mix(h) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("keys 7 and 8 produced identical mixers")
	}
}

func TestBandMixerNilIsIdentity(t *testing.T) {
	var m *BandMixer
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 64; i++ {
		h := Hash(rng.Uint64())
		if m.Mix(h) != uint64(h) {
			t.Fatalf("nil mixer changed %#x", h)
		}
	}
	sig := Signature{A: 1, D: 2, P: 3}
	if got := m.MixSignature(sig); got != [3]uint64{1, 2, 3} {
		t.Fatalf("nil MixSignature = %v", got)
	}
}

func TestNewRandomBandMixerDrawsDistinctKeys(t *testing.T) {
	if *NewRandomBandMixer() == *NewRandomBandMixer() {
		t.Fatal("two random mixers share a key")
	}
}

// The crafted corpus must do what the attack model claims: share band
// 0 of kinds A and D across every signature (so an unkeyed index
// buckets them together) while no pair is anywhere near the match
// threshold (so the aggregator would happily host all of them).
func TestCraftedCollisionsShape(t *testing.T) {
	corpus, probes := CraftedCollisions(99, 5, 200, 20)
	all := append(append([]Signature{}, corpus...), probes...)
	a0 := Band(all[0].A, 0, 5)
	d0 := Band(all[0].D, 0, 5)
	for i, s := range all {
		if Band(s.A, 0, 5) != a0 || Band(s.D, 0, 5) != d0 {
			t.Fatalf("signature %d does not share the fixed bands", i)
		}
	}
	for i := 0; i < len(all); i += 7 {
		for j := i + 1; j < len(all); j += 13 {
			if all[i].Matches(all[j]) {
				t.Fatalf("crafted signatures %d and %d match — corpus would be rejected as derivatives", i, j)
			}
		}
	}
	c2, p2 := CraftedCollisions(99, 5, 200, 20)
	for i := range c2 {
		if c2[i] != corpus[i] {
			t.Fatal("CraftedCollisions not deterministic in seed")
		}
	}
	for i := range p2 {
		if p2[i] != probes[i] {
			t.Fatal("CraftedCollisions not deterministic in seed")
		}
	}
}
