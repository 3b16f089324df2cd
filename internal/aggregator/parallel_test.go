package aggregator

import (
	"testing"

	"irs/internal/ids"
	"irs/internal/parallel"
	"irs/internal/phash"
)

// TestLookupHashFirstMatchAcrossWorkers pins the derivative-defense
// lookup's serial semantics: when several hosted photos match an
// uploaded signature, the earliest-hosted one wins, at any worker
// count, through both the banded index and the linear reference scan.
// The DB is built large enough to cross both the parallel-scan and the
// index-rebuild thresholds and holds two matching entries; every
// worker count and both paths must resolve to the first.
func TestLookupHashFirstMatchAcrossWorkers(t *testing.T) {
	const n = 4 * lookupHashChunk
	const firstMatch, secondMatch = lookupHashChunk + 7, 3*lookupHashChunk + 1
	probe := phash.Signature{} // all-zero hashes
	far := phash.Signature{A: ^phash.Hash(0), D: ^phash.Hash(0), P: ^phash.Hash(0)}

	idx := NewSigIndex(IndexConfig{})
	for i := 0; i < n; i++ {
		sig := far
		if i == firstMatch || i == secondMatch {
			sig = probe
		}
		idx.Add(sig, ids.PhotoID{Ledger: ids.LedgerID(i)})
	}
	if st := idx.stats(); st.Indexed == 0 {
		t.Fatalf("index never rebuilt: %+v", st)
	}

	for _, w := range []int{1, 2, 8} {
		prev := parallel.SetWorkers(w)
		id, ok := idx.Lookup(probe)
		lid, lok := idx.LookupLinear(probe)
		parallel.SetWorkers(prev)
		if !ok || !lok {
			t.Fatalf("workers=%d: no match found (indexed=%v linear=%v)", w, ok, lok)
		}
		if id.Ledger != firstMatch {
			t.Errorf("workers=%d: indexed matched entry %d, want first match %d", w, id.Ledger, firstMatch)
		}
		if lid.Ledger != firstMatch {
			t.Errorf("workers=%d: linear matched entry %d, want first match %d", w, lid.Ledger, firstMatch)
		}
	}

	// Equidistant (32 bits) from both populations: no 2-of-3 vote.
	mid := phash.Hash(0xAAAAAAAAAAAAAAAA)
	prev := parallel.SetWorkers(8)
	if _, ok := idx.Lookup(phash.Signature{A: mid, D: mid, P: mid}); ok {
		t.Error("indexed lookup matched a signature not in the DB")
	}
	if _, ok := idx.LookupLinear(phash.Signature{A: mid, D: mid, P: mid}); ok {
		t.Error("linear lookup matched a signature not in the DB")
	}
	parallel.SetWorkers(prev)
}
