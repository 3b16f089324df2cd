package bloom

import (
	"bytes"
	"testing"

	"irs/internal/parallel"
)

// TestAddAllMatchesSerialAdd proves the atomic-OR sharded construction
// is bit-identical to the serial Add loop at any worker count.
func TestAddAllMatchesSerialAdd(t *testing.T) {
	const n = 20_000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = parallel.SplitMix64(uint64(i) + 0xabcdef)
	}
	want, err := New(1<<18, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		want.Add(k)
	}
	for _, w := range []int{1, 2, 8} {
		prev := parallel.SetWorkers(w)
		got, err := New(1<<18, 6)
		if err != nil {
			parallel.SetWorkers(prev)
			t.Fatal(err)
		}
		got.AddAll(keys)
		parallel.SetWorkers(prev)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Errorf("workers=%d: AddAll filter differs from serial Add loop", w)
		}
		if got.N() != want.N() {
			t.Errorf("workers=%d: N=%d want %d", w, got.N(), want.N())
		}
	}
}

// TestTestAllAndCountHits checks batch probes against element-wise Test.
func TestTestAllAndCountHits(t *testing.T) {
	prev := parallel.SetWorkers(8)
	defer parallel.SetWorkers(prev)
	f, err := NewWithEstimate(10_000, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]uint64, 10_000)
	for i := range members {
		members[i] = parallel.SplitMix64(uint64(i))
	}
	f.AddAll(members)
	probes := make([]uint64, 15_000)
	for i := range probes {
		probes[i] = parallel.SplitMix64(uint64(i) + 5_000) // half members, half not
	}
	got := f.TestAll(probes)
	hits := 0
	for i, key := range probes {
		want := f.Test(key)
		if got[i] != want {
			t.Fatalf("TestAll[%d] = %v, Test = %v", i, got[i], want)
		}
		if want {
			hits++
		}
	}
	if c := f.CountHits(probes); c != hits {
		t.Errorf("CountHits = %d, want %d", c, hits)
	}
	if len(f.TestAll(nil)) != 0 || f.CountHits(nil) != 0 {
		t.Error("empty batch mishandled")
	}
}
