package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := SetWorkers(n)
	t.Cleanup(func() { SetWorkers(prev) })
}

func TestDoCoversAllIndices(t *testing.T) {
	for _, w := range []int{1, 2, 8, 64} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			withWorkers(t, w)
			const n = 1000
			var hits [n]atomic.Int32
			Do(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("index %d ran %d times", i, got)
				}
			}
		})
	}
}

func TestDoEmptyAndNegative(t *testing.T) {
	withWorkers(t, 8)
	called := false
	Do(0, func(int) { called = true })
	Do(-3, func(int) { called = true })
	if called {
		t.Error("fn called for empty input")
	}
}

func TestDoWorkersExceedItems(t *testing.T) {
	withWorkers(t, 32)
	var count atomic.Int32
	Do(3, func(int) { count.Add(1) })
	if count.Load() != 3 {
		t.Errorf("ran %d of 3 items", count.Load())
	}
}

func TestDoPanicPropagates(t *testing.T) {
	for _, w := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			withWorkers(t, w)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("panic did not propagate")
				}
				if w > 1 {
					pe, ok := r.(*PanicError)
					if !ok {
						t.Fatalf("recovered %T, want *PanicError", r)
					}
					if pe.Value != "boom" || len(pe.Stack) == 0 {
						t.Fatalf("PanicError value %v, stack %d bytes", pe.Value, len(pe.Stack))
					}
				}
			}()
			Do(100, func(i int) {
				if i == 37 {
					panic("boom")
				}
			})
		})
	}
}

func TestMapOrderPreserved(t *testing.T) {
	withWorkers(t, 8)
	in := make([]int, 500)
	for i := range in {
		in[i] = i * 3
	}
	out := Map(in, func(i, v int) int { return v + i })
	for i, v := range out {
		if v != i*4 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*4)
		}
	}
	if got := Map(nil, func(i, v int) int { return v }); len(got) != 0 {
		t.Errorf("nil input gave %d results", len(got))
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	withWorkers(t, 8)
	errLow, errHigh := errors.New("low"), errors.New("high")
	in := make([]int, 200)
	_, err := MapErr(in, func(i, _ int) (int, error) {
		switch i {
		case 190:
			return 0, errHigh
		case 11:
			return 0, errLow
		}
		return i, nil
	})
	if err != errLow {
		t.Errorf("got %v, want the lowest-index error", err)
	}
	if _, err := MapErr(in, func(i, _ int) (int, error) { return i, nil }); err != nil {
		t.Errorf("clean run errored: %v", err)
	}
}

func TestForChunksBoundaries(t *testing.T) {
	withWorkers(t, 8)
	type span struct{ chunk, lo, hi int }
	for _, tc := range []struct{ n, size, chunks int }{
		{10, 3, 4}, {9, 3, 3}, {1, 100, 1}, {5, 0, 5},
	} {
		var mu atomic.Int64
		got := make([]span, (tc.n+max(tc.size, 1)-1)/max(tc.size, 1))
		ForChunks(tc.n, tc.size, func(c, lo, hi int) {
			got[c] = span{c, lo, hi}
			mu.Add(int64(hi - lo))
		})
		if len(got) != tc.chunks {
			t.Errorf("n=%d size=%d: %d chunks, want %d", tc.n, tc.size, len(got), tc.chunks)
		}
		if mu.Load() != int64(tc.n) {
			t.Errorf("n=%d size=%d: covered %d indices", tc.n, tc.size, mu.Load())
		}
		for c := 1; c < len(got); c++ {
			if got[c].lo != got[c-1].hi {
				t.Errorf("n=%d size=%d: gap between chunk %d and %d", tc.n, tc.size, c-1, c)
			}
		}
	}
	ForChunks(0, 4, func(c, lo, hi int) { t.Error("fn called for n=0") })
}

func TestSetWorkersRoundTrip(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if Workers() != 3 {
		t.Errorf("Workers() = %d after SetWorkers(3)", Workers())
	}
	if got := SetWorkers(0); got != 3 {
		t.Errorf("SetWorkers returned %d, want 3", got)
	}
	if Workers() < 1 {
		t.Errorf("automatic Workers() = %d", Workers())
	}
}

// TestStress hammers the pool from many configurations; run with -race
// (scripts/check.sh does) to prove the counter/waitgroup protocol is
// clean.
func TestStress(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		w := 1 + rng.Intn(16)
		n := rng.Intn(300)
		withWorkers(t, w)
		sums := make([]int64, n)
		Do(n, func(i int) { sums[i] = int64(i) * 7 })
		var total, want int64
		for i, s := range sums {
			total += s
			want += int64(i) * 7
		}
		if total != want {
			t.Fatalf("iter %d (w=%d n=%d): sum %d want %d", iter, w, n, total, want)
		}
	}
}
