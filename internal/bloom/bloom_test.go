package bloom

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"irs/internal/parallel"
)

func TestNewValidation(t *testing.T) {
	for _, c := range []struct {
		m uint64
		k int
	}{{0, 3}, {100, 0}, {100, 33}} {
		if _, err := New(c.m, c.k); err == nil {
			t.Errorf("New(%d,%d) accepted", c.m, c.k)
		}
	}
	f, err := New(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.M()%64 != 0 || f.M() < 100 {
		t.Errorf("M = %d, want multiple of 64 >= 100", f.M())
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f, err := NewWithEstimate(1000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		f.Add(parallel.SplitMix64(i))
	}
	for i := uint64(0); i < 1000; i++ {
		if !f.Test(parallel.SplitMix64(i)) {
			t.Fatalf("false negative for key %d", i)
		}
	}
	if f.N() != 1000 {
		t.Errorf("N = %d, want 1000", f.N())
	}
}

func TestFPRNearDesign(t *testing.T) {
	const n = 20000
	const target = 0.02 // the paper's 2% operating point
	f, err := NewWithEstimate(n, target)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		f.Add(parallel.SplitMix64(i))
	}
	var fp int
	const probes = 100000
	for i := uint64(0); i < probes; i++ {
		if f.Test(parallel.SplitMix64(1_000_000 + i)) {
			fp++
		}
	}
	got := float64(fp) / probes
	if got < target/2 || got > target*2 {
		t.Errorf("measured FPR %.4f, designed %.4f", got, target)
	}
}

func TestTheoreticalFPRPaperPoint(t *testing.T) {
	// The paper's headline: 1 GB filter, 1e9 photos → ~2% false hits.
	bpk, k, fpr := PaperOperatingPoint(1<<30, 1e9)
	if math.Abs(bpk-8.59) > 0.1 {
		t.Errorf("bits/key = %.3f, want ~8.59", bpk)
	}
	if k != 6 {
		t.Errorf("optimal k = %d, want 6", k)
	}
	if fpr < 0.015 || fpr > 0.025 {
		t.Errorf("theoretical FPR %.4f, paper says ~2%%", fpr)
	}
	// And the 100 GB / 100 B point has "a similar error rate".
	_, _, fpr2 := PaperOperatingPoint(100<<30, 100e9)
	if math.Abs(fpr2-fpr)/fpr > 0.15 {
		t.Errorf("100GB/100B FPR %.4f differs from 1GB/1B %.4f", fpr2, fpr)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f, err := NewWithEstimate(500, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		f.Add(parallel.SplitMix64(i * 3))
	}
	got, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != f.M() || got.K() != f.K() || got.N() != f.N() {
		t.Error("parameters changed in round trip")
	}
	for i := uint64(0); i < 500; i++ {
		if !got.Test(parallel.SplitMix64(i * 3)) {
			t.Fatalf("round-tripped filter lost key %d", i)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty":     {},
		"bad magic": []byte("XXXXXX0123456789012345678901234567890"),
		"short":     []byte("IRSBF1\x00"),
	} {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Truncated body.
	f, err := New(1<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	enc := f.Marshal()
	if _, err := Unmarshal(enc[:len(enc)-8]); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestClone(t *testing.T) {
	f, err := New(1<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	f.Add(1)
	c := f.Clone()
	c.Add(2)
	if f.Test(2) {
		t.Error("clone shares bits")
	}
	if !c.Test(1) || c.N() != 2 {
		t.Error("clone lost the original's key or count")
	}
}

func TestFillRatioAndEstimatedFPR(t *testing.T) {
	f, err := NewWithEstimate(5000, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		f.Add(parallel.SplitMix64(i))
	}
	fill := f.FillRatio()
	if fill < 0.4 || fill > 0.6 {
		t.Errorf("fill ratio %.3f, want ~0.5 at design load", fill)
	}
	// The false-positive rate the fill implies, fill^k.
	est := math.Pow(fill, float64(f.K()))
	if est < 0.005 || est > 0.06 {
		t.Errorf("estimated FPR %.4f, want near 0.02", est)
	}
}

func TestFold(t *testing.T) {
	if Fold(1, 2) == Fold(2, 1) {
		t.Error("Fold symmetric in hi/lo — loses identifier structure")
	}
	if Fold(0, 0) == Fold(0, 1) {
		t.Error("Fold ignores lo")
	}
}

// Property: Test never returns false for an added key, for arbitrary key
// sets and sizes.
func TestQuickNoFalseNegatives(t *testing.T) {
	f := func(keys []uint64) bool {
		if len(keys) == 0 {
			return true
		}
		fl, err := NewWithEstimate(uint64(len(keys)), 0.05)
		if err != nil {
			return false
		}
		for _, k := range keys {
			fl.Add(k)
		}
		for _, k := range keys {
			if !fl.Test(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	f, err := NewWithEstimate(1<<20, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i))
	}
}

func BenchmarkTest(b *testing.B) {
	f, err := NewWithEstimate(1<<20, 0.02)
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

// TestHashMatchesProtocol pins Hash to PROTOCOL.md's digest,
// SHA-256(m ∥ k ∥ big-endian words), for bit arrays on both sides of
// the 4 KiB chunks Hash feeds the digest in.
func TestHashMatchesProtocol(t *testing.T) {
	for _, words := range []uint64{1, 511, 512, 513, 1025} {
		f, err := New(64*words, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 3*words; i++ {
			f.Add(i)
		}
		stream := binary.BigEndian.AppendUint64(nil, f.m)
		stream = binary.BigEndian.AppendUint32(stream, uint32(f.k))
		for _, w := range f.bits {
			stream = binary.BigEndian.AppendUint64(stream, w)
		}
		if f.Hash() != sha256.Sum256(stream) {
			t.Errorf("%d words: Hash differs from SHA-256 of the protocol's byte stream", words)
		}
	}
}
