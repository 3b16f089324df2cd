package aggregator

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"irs/internal/ids"
	"irs/internal/parallel"
	"irs/internal/phash"
)

func testID(n int) ids.PhotoID {
	var id ids.PhotoID
	id.Ledger = ids.LedgerID(n%7 + 1)
	binary.BigEndian.PutUint64(id.Rec[:8], uint64(n))
	return id
}

func randSig(rng *rand.Rand) phash.Signature {
	return phash.Signature{
		A: phash.Hash(rng.Uint64()),
		D: phash.Hash(rng.Uint64()),
		P: phash.Hash(rng.Uint64()),
	}
}

// flipBits returns h with exactly d distinct bits flipped.
func flipBits(rng *rand.Rand, h phash.Hash, d int) phash.Hash {
	for _, bit := range rng.Perm(64)[:d] {
		h ^= 1 << uint(bit)
	}
	return h
}

// nearProbe derives a probe from sig at per-kind Hamming distances
// dA, dD, dP — the knobs for near-threshold differential cases.
func nearProbe(rng *rand.Rand, sig phash.Signature, dA, dD, dP int) phash.Signature {
	return phash.Signature{
		A: flipBits(rng, sig.A, dA),
		D: flipBits(rng, sig.D, dD),
		P: flipBits(rng, sig.P, dP),
	}
}

// TestIndexedLinearDifferential is the equivalence proof in test form:
// over seeded random databases, probes engineered to straddle the
// match threshold (per-kind distances 9, 10, and 11), interleaved
// takedowns, every tested worker count and four concurrent client
// goroutines, the banded index and the linear reference scan must
// return byte-identical results — same hit/miss and, on hits, the same
// first-inserted winner. Both the 5-band default and the classic
// 11-band decomposition are covered.
func TestIndexedLinearDifferential(t *testing.T) {
	const n = 3000
	for _, bands := range []int{DefaultIndexBands, phash.NumBands} {
		t.Run(fmt.Sprintf("bands=%d", bands), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + bands)))
			idx := NewSigIndex(IndexConfig{bands: bands, maxTail: 256})
			sigs := make([]phash.Signature, 0, n)
			for i := 0; i < n; i++ {
				sig := randSig(rng)
				if i%5 == 0 && i > 0 {
					// Duplicate an earlier signature so some probes have
					// several candidate matches and the first-match
					// tie-break is actually exercised.
					sig = sigs[rng.Intn(len(sigs))]
				}
				sigs = append(sigs, sig)
				idx.Add(sig, testID(i))
			}
			if st := idx.stats(); st.Indexed == 0 {
				t.Fatalf("bands=%d: index never rebuilt: %+v", bands, st)
			}

			probes := make([]phash.Signature, 0, 600)
			for i := 0; i < 200; i++ {
				base := sigs[rng.Intn(n)]
				// Near-threshold hits and misses: 9 and 10 are within the
				// threshold, 11 is just outside; the vote needs two kinds in.
				probes = append(probes,
					nearProbe(rng, base, 9, 10, 40),  // hit: A+D vote
					nearProbe(rng, base, 10, 11, 40), // miss: only A votes
					nearProbe(rng, base, 11, 9, 10),  // hit: D+P vote
				)
				probes = append(probes, randSig(rng)) // far miss
			}

			check := func(round string) {
				t.Helper()
				for _, w := range []int{1, 4, 8} {
					prev := parallel.SetWorkers(w)
					for pi, p := range probes {
						gotID, gotOK := idx.Lookup(p)
						wantID, wantOK := idx.LookupLinear(p)
						if gotOK != wantOK || gotID != wantID {
							parallel.SetWorkers(prev)
							t.Fatalf("bands=%d %s workers=%d probe %d: indexed (%v,%v) != linear (%v,%v)",
								bands, round, w, pi, gotID, gotOK, wantID, wantOK)
						}
					}
					parallel.SetWorkers(prev)
				}
				// Four client goroutines, each probing its own share at
				// once, read one snapshot lock-free and must get the same
				// answers as the serial linear scan.
				const clients = 4
				type answer struct {
					id ids.PhotoID
					ok bool
				}
				want := make([]answer, len(probes))
				for pi, p := range probes {
					want[pi].id, want[pi].ok = idx.LookupLinear(p)
				}
				firstBad := make([]int, clients)
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					firstBad[c] = -1
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for pi := c; pi < len(probes); pi += clients {
							if id, ok := idx.Lookup(probes[pi]); ok != want[pi].ok || id != want[pi].id {
								firstBad[c] = pi
								return
							}
						}
					}(c)
				}
				wg.Wait()
				for c, pi := range firstBad {
					if pi >= 0 {
						t.Fatalf("bands=%d %s client %d of %d: probe %d differs from linear", bands, round, c, clients, pi)
					}
				}
			}
			check("after-build")

			// Interleave takedowns with lookups: tombstones must shift the
			// first-match winner identically in both paths, through enough
			// removals to trigger compaction.
			removed := 0
			for _, i := range rng.Perm(n) {
				if idx.Remove(testID(i)) > 0 {
					removed++
				}
				if removed == n/10 || removed == n/3 {
					check("mid-takedown")
					removed++
				}
				if removed > n/2 {
					break
				}
			}
			st := idx.stats()
			if st.Compactions == 0 {
				t.Errorf("bands=%d: no compaction after removing half the DB: %+v", bands, st)
			}
			check("after-takedown")
		})
	}
}

// TestIndexTombstoneShiftsWinner pins the takedown semantics the
// aggregator relies on: removing the first of two matching entries
// makes the later one the winner, and removing both makes the probe
// miss.
func TestIndexTombstoneShiftsWinner(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	idx := NewSigIndex(IndexConfig{maxTail: 64})
	shared := randSig(rng)
	const first, second = 40, 150
	for i := 0; i < 300; i++ {
		sig := randSig(rng)
		if i == first || i == second {
			sig = shared
		}
		idx.Add(sig, testID(i))
	}
	if id, ok := idx.Lookup(shared); !ok || id != testID(first) {
		t.Fatalf("lookup = %v,%v, want first entry", id, ok)
	}
	if got := idx.Remove(testID(first)); got != 1 {
		t.Fatalf("Remove = %d, want 1", got)
	}
	if id, ok := idx.Lookup(shared); !ok || id != testID(second) {
		t.Fatalf("after takedown lookup = %v,%v, want second entry", id, ok)
	}
	idx.Remove(testID(second))
	if _, ok := idx.Lookup(shared); ok {
		t.Fatal("lookup still hits after both entries removed")
	}
	if got := idx.Remove(testID(first)); got != 0 {
		t.Fatalf("double Remove = %d, want 0", got)
	}
}

// TestIndexCompactionPreservesOrder fills an index, removes enough to
// trip compaction, and verifies the stats account for every entry and
// the insertion-order winner survives the rewrite.
func TestIndexCompactionPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	idx := NewSigIndex(IndexConfig{maxTail: 64})
	shared := randSig(rng)
	const n = 1000
	for i := 0; i < n; i++ {
		sig := randSig(rng)
		if i == 500 || i == 900 {
			sig = shared
		}
		idx.Add(sig, testID(i))
	}
	for i := 0; i < n/3; i++ {
		idx.Remove(testID(i))
	}
	st := idx.stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after %d removals: %+v", n/3, st)
	}
	if st.Live != n-n/3 || st.Entries != st.Live+st.Dead {
		t.Fatalf("post-compaction stats %+v", st)
	}
	// The compaction policy bounds steady-state garbage: dead entries
	// left behind are always under the re-trigger threshold.
	if st.Dead >= 64 && st.Dead*4 >= st.Entries {
		t.Fatalf("dead fraction above compaction threshold: %+v", st)
	}
	if id, ok := idx.Lookup(shared); !ok || id != testID(500) {
		t.Fatalf("post-compaction lookup = %v,%v, want entry 500", id, ok)
	}
}

// TestIndexAddAll checks the bulk-ingest path produces the same index
// as repeated Add, with a single rebuild.
func TestIndexAddAll(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 2000
	sigs := make([]phash.Signature, n)
	pids := make([]ids.PhotoID, n)
	for i := range sigs {
		sigs[i] = randSig(rng)
		pids[i] = testID(i)
	}
	bulk := NewSigIndex(IndexConfig{})
	bulk.AddAll(sigs, pids)
	if st := bulk.stats(); st.Entries != n || st.Rebuilds != 1 {
		t.Fatalf("bulk stats %+v, want %d entries in one rebuild", st, n)
	}
	for i := 0; i < 100; i++ {
		j := rng.Intn(n)
		if id, ok := bulk.Lookup(sigs[j]); !ok || id == (ids.PhotoID{}) {
			t.Fatalf("bulk lookup %d failed: %v %v", j, id, ok)
		}
	}
}

// TestIndexConcurrentUploadLookupTakeDown hammers one index with
// concurrent adders, removers, and lock-free readers. Run under
// -race (scripts/check.sh does) it is the data-race proof for the
// copy-on-write snapshot scheme; its assertions also catch torn reads
// (an entry resolving to an identifier that was never added).
func TestIndexConcurrentUploadLookupTakeDown(t *testing.T) {
	idx := NewSigIndex(IndexConfig{maxTail: 64})
	const (
		writers  = 2
		readers  = 4
		perGoro  = 400
		removers = 2
	)
	sigFor := func(n int) phash.Signature {
		rng := rand.New(rand.NewSource(int64(n)))
		return randSig(rng)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				n := w*perGoro + i
				idx.Add(sigFor(n), testID(n))
			}
		}(w)
	}
	for r := 0; r < removers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				idx.Remove(testID(r*perGoro + i*3))
			}
		}(r)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for i := 0; i < perGoro; i++ {
				probe := sigFor(rng.Intn(writers * perGoro))
				if id, ok := idx.Lookup(probe); ok {
					if int(id.Ledger) == 0 && id.Rec == ([12]byte{}) {
						t.Error("lookup returned the zero identifier")
						return
					}
				}
				if _, ok := idx.LookupLinear(randSig(rng)); ok && rng.Intn(1000) == 0 {
					t.Log("improbable random hit (not an error)")
				}
			}
		}(r)
	}
	wg.Wait()
	st := idx.stats()
	if st.Entries == 0 || st.Live > writers*perGoro {
		t.Fatalf("final stats %+v", st)
	}
	// Quiescent differential sweep: after the dust settles the two
	// paths must agree everywhere.
	for n := 0; n < writers*perGoro; n += 7 {
		p := sigFor(n)
		gotID, gotOK := idx.Lookup(p)
		wantID, wantOK := idx.LookupLinear(p)
		if gotOK != wantOK || gotID != wantID {
			t.Fatalf("probe %d: indexed (%v,%v) != linear (%v,%v)", n, gotID, gotOK, wantID, wantOK)
		}
	}
}
