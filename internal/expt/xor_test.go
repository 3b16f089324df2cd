package expt

import (
	"bytes"
	"testing"

	"irs/internal/parallel"
)

func xorTestKeys(n int, offset uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = parallel.SplitMix64(offset + uint64(i))
	}
	return keys
}

func TestXor8NoFalseNegatives(t *testing.T) {
	keys := xorTestKeys(10000, 0)
	x, err := buildXor8(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !x.Contains(k) {
			t.Fatalf("false negative at %d", i)
		}
	}
}

func TestXor8FPRNearQuarterPercent(t *testing.T) {
	keys := xorTestKeys(20000, 0)
	x, err := buildXor8(keys)
	if err != nil {
		t.Fatal(err)
	}
	var fp int
	const probes = 200000
	for i := uint64(0); i < probes; i++ {
		if x.Contains(parallel.SplitMix64(10_000_000 + i)) {
			fp++
		}
	}
	got := float64(fp) / probes
	// Design rate is 1/256 ≈ 0.0039; allow generous sampling slack.
	if got > 0.008 {
		t.Errorf("xor8 FPR %.5f, want ≈ 0.0039", got)
	}
}

func TestXor8BitsPerKey(t *testing.T) {
	keys := xorTestKeys(50000, 7)
	x, err := buildXor8(keys)
	if err != nil {
		t.Fatal(err)
	}
	bpk := x.BitsPerKey(len(keys))
	if bpk < 9 || bpk > 11 {
		t.Errorf("bits/key = %.2f, want ≈ 9.84", bpk)
	}
}

func TestXor8SmallSets(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 100} {
		keys := xorTestKeys(n, uint64(n)*1000)
		x, err := buildXor8(keys)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for _, k := range keys {
			if !x.Contains(k) {
				t.Fatalf("n=%d: false negative", n)
			}
		}
	}
}

func TestXor8Empty(t *testing.T) {
	if _, err := buildXor8(nil); err == nil {
		t.Error("empty key set accepted")
	}
}

func TestXor8DuplicatesFail(t *testing.T) {
	keys := []uint64{1, 2, 3, 1}
	if _, err := buildXor8(keys); err == nil {
		t.Error("duplicate keys should make construction fail")
	}
}

// TestBuildXor8WorkerInvariance proves the parallel hash precompute
// does not perturb the peel: same keys → byte-identical filter at any
// worker count, and every built key still hits.
func TestBuildXor8WorkerInvariance(t *testing.T) {
	const n = 30_000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = parallel.SplitMix64(uint64(i) * 2654435761)
	}
	build := func(w int) *xor8 {
		prev := parallel.SetWorkers(w)
		defer parallel.SetWorkers(prev)
		x, err := buildXor8(keys)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		return x
	}
	base := build(1)
	for _, w := range []int{2, 8} {
		got := build(w)
		if got.seed != base.seed || got.blockLength != base.blockLength ||
			!bytes.Equal(got.fingerprints, base.fingerprints) {
			t.Errorf("workers=%d: filter differs from serial build", w)
		}
	}
	for i, ok := range base.ContainsAll(keys) {
		if !ok {
			t.Fatalf("built key %d reported absent", i)
		}
	}
}

func TestBlockedNoFalseNegatives(t *testing.T) {
	f, err := newBlockedWithEstimate(10000, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10000; i++ {
		f.Add(parallel.SplitMix64(i))
	}
	for i := uint64(0); i < 10000; i++ {
		if !f.Test(parallel.SplitMix64(i)) {
			t.Fatalf("false negative at %d", i)
		}
	}
	if f.N() != 10000 {
		t.Errorf("N = %d", f.N())
	}
}

func TestBlockedFPRReasonable(t *testing.T) {
	const n = 20000
	f, err := newBlockedWithEstimate(n, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		f.Add(parallel.SplitMix64(i))
	}
	var fp int
	const probes = 100000
	for i := uint64(0); i < probes; i++ {
		if f.Test(parallel.SplitMix64(5_000_000 + i)) {
			fp++
		}
	}
	got := float64(fp) / probes
	// Blocking costs some FPR; must stay within ~3x of design.
	if got > 0.06 {
		t.Errorf("blocked FPR %.4f, design 0.02", got)
	}
}

func TestBlockedValidation(t *testing.T) {
	if _, err := newBlocked(0, 3); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := newBlocked(100, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := newBlockedWithEstimate(0, 0.1); err == nil {
		t.Error("n=0 accepted")
	}
	f, err := newBlocked(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.M()%512 != 0 {
		t.Errorf("M = %d, want multiple of 512", f.M())
	}
	if f.SizeBytes() != f.M()/8 {
		t.Errorf("SizeBytes inconsistent")
	}
}

func BenchmarkXor8Contains(b *testing.B) {
	keys := xorTestKeys(1<<20, 0)
	x, err := buildXor8(keys)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Contains(uint64(i))
	}
}

func BenchmarkXor8Build(b *testing.B) {
	keys := xorTestKeys(100000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildXor8(keys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockedTest(b *testing.B) {
	f, err := newBlockedWithEstimate(1<<20, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < 1<<20; i++ {
		f.Add(parallel.SplitMix64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Test(uint64(i))
	}
}
