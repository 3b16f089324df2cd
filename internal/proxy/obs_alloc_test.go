package proxy

import (
	"testing"
	"time"

	"irs/internal/bloom"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
)

// TestObsAddsNoAllocations is the observability layer's overhead gate
// on something a shared 2-core host repeats exactly: the same
// validator built without and with a shared registry must allocate the
// same number of objects for one 48-photo page, batched and per id.
// The page is a third filter answers, a third cache hits and a third
// ledger queries (invalidated before every run so they stay queries).
// A counter or histogram that allocates on the hot path shows up here
// as a difference; the per-call time pair is BenchmarkValidateObsOff/On
// in the root package.
func TestObsAddsNoAllocations(t *testing.T) {
	const third = 16
	page := make([]ids.PhotoID, 0, 3*third)
	filter, err := bloom.NewWithEstimate(1024, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	// Cache hits, then ledger queries: in the filter, so the probe
	// cannot answer for them.
	for len(page) < 2*third {
		id := mustNewID(t, 1)
		filter.Add(ledger.FilterKey(id))
		page = append(page, id)
	}
	queried := page[third:]
	// Filter answers: ids the finished filter does not match.
	for len(page) < 3*third {
		if id := mustNewID(t, 1); !filter.Test(ledger.FilterKey(id)) {
			page = append(page, id)
		}
	}
	issued := time.Now()
	query := func(id ids.PhotoID) (*ledger.StatusProof, error) {
		return &ledger.StatusProof{ID: id, State: ledger.StateActive, IssuedAt: issued}, nil
	}

	measure := func(reg *obs.Registry) (batch, serial float64) {
		v := NewValidator(Config{UseFilter: true, CacheCapacity: 1024, CacheTTL: time.Hour, Obs: reg}, perID(query))
		v.SetFilter(1, 1, filter)
		if _, err := v.ValidateBatch(page); err != nil { // warm the cache third
			t.Fatal(err)
		}
		v.resetStats()
		batch = testing.AllocsPerRun(50, func() {
			for _, id := range queried {
				v.Invalidate(id)
			}
			if _, err := v.ValidateBatch(page); err != nil {
				t.Fatal(err)
			}
		})
		serial = testing.AllocsPerRun(50, func() {
			for _, id := range queried {
				v.Invalidate(id)
			}
			for _, id := range page {
				if _, err := v.Validate(id); err != nil {
					t.Fatal(err)
				}
			}
		})
		// The page really was the stated mix, in both arms.
		st := v.Stats()
		if st.FilterMisses == 0 || st.FilterMisses != st.CacheHits || st.CacheHits != st.LedgerQueries {
			t.Fatalf("page mix: %d filter answers, %d cache hits, %d ledger queries; want equal thirds",
				st.FilterMisses, st.CacheHits, st.LedgerQueries)
		}
		return batch, serial
	}

	offBatch, offSerial := measure(nil)
	onBatch, onSerial := measure(obs.NewRegistry())
	if onBatch != offBatch {
		t.Errorf("ValidateBatch: %.1f allocs/page with a registry, %.1f without", onBatch, offBatch)
	}
	if onSerial != offSerial {
		t.Errorf("48 x Validate: %.1f allocs/page with a registry, %.1f without", onSerial, offSerial)
	}
	t.Logf("allocs/page off/on: batch %.1f/%.1f, serial %.1f/%.1f", offBatch, onBatch, offSerial, onSerial)
}
