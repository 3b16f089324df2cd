// Package parallel is the shared execution layer for the repository's
// CPU-bound hot paths: watermark block transforms, perceptual hashing,
// filter construction and probing, and the experiment loops that
// regenerate the committed tables.
//
// Design constraints, in order:
//
//  1. Determinism. EXPERIMENTS.md tables are committed, so every caller
//     must produce byte-identical output at any worker count. The
//     package enforces the two idioms that make this automatic: results
//     are written by input index (Do, Map, MapErr), and chunk
//     boundaries are a function of the input size only — never of the
//     worker count (ForChunks takes an explicit chunk size). Callers
//     that need randomness derive an independent stream per chunk, not
//     per worker.
//  2. Zero dependencies. Stdlib only; the pool is a counter, a
//     WaitGroup, and GOMAXPROCS goroutines.
//  3. Honest fallback. At one worker every entry point degenerates to
//     the plain serial loop, so single-core environments pay nothing.
//
// The default worker count is GOMAXPROCS, overridable process-wide by
// the IRS_WORKERS environment variable or programmatically (tests,
// cmd/irs-bench -workers) with SetWorkers.
package parallel

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
)

// workerOverride holds a SetWorkers override; 0 means "automatic".
var workerOverride atomic.Int64

// envWorkers reads the IRS_WORKERS override once.
var envWorkers = sync.OnceValue(func() int {
	v := os.Getenv("IRS_WORKERS")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0
	}
	return n
})

// Workers returns the effective worker count: the SetWorkers override
// if set, else IRS_WORKERS if set and positive, else GOMAXPROCS.
func Workers() int {
	if n := workerOverride.Load(); n > 0 {
		return int(n)
	}
	if n := envWorkers(); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the worker count process-wide and returns the
// previous override (0 if none was set). n <= 0 clears the override.
// Tests use it to pin serial and parallel runs; restore with
// defer SetWorkers(prev).
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(workerOverride.Swap(int64(n)))
}

// PanicError wraps a panic recovered from a pool worker so the caller's
// stack sees exactly one panic with the worker's original trace
// attached.
type PanicError struct {
	// Value is the value originally passed to panic.
	Value any
	// Stack is the worker goroutine's stack at panic time.
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", p.Value, p.Stack)
}

// Do runs fn(i) for every i in [0, n) across the pool and returns when
// all calls complete. Iterations are distributed dynamically, so fn
// must not depend on which worker runs which index; writing results
// into a caller-owned slice at position i keeps output deterministic.
// A panic in any fn is re-raised on the calling goroutine as a
// *PanicError after the remaining workers drain.
func Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  *PanicError
	)
	worker := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() {
					panicked = &PanicError{Value: r, Stack: debug.Stack()}
				})
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	wg.Add(w)
	for i := 0; i < w; i++ {
		go worker()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Map applies fn to every element of in and returns the results in
// input order. fn receives the element index and value.
func Map[T, R any](in []T, fn func(i int, v T) R) []R {
	out := make([]R, len(in))
	Do(len(in), func(i int) {
		out[i] = fn(i, in[i])
	})
	return out
}

// MapErr is Map for fallible fn. All elements are processed; the
// returned error is the one from the lowest input index, so the
// (result, error) pair is deterministic at any worker count.
func MapErr[T, R any](in []T, fn func(i int, v T) (R, error)) ([]R, error) {
	out := make([]R, len(in))
	errs := make([]error, len(in))
	Do(len(in), func(i int) {
		out[i], errs[i] = fn(i, in[i])
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ForChunks splits [0, n) into contiguous chunks of chunkSize (the last
// may be short) and runs fn(chunk, lo, hi) for each across the pool.
// Chunk boundaries depend only on n and chunkSize — not on the worker
// count — so per-chunk reductions combined in chunk order are
// deterministic at any parallelism. chunkSize < 1 is treated as 1.
func ForChunks(n, chunkSize int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunkSize < 1 {
		chunkSize = 1
	}
	chunks := (n + chunkSize - 1) / chunkSize
	Do(chunks, func(c int) {
		lo := c * chunkSize
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		fn(c, lo, hi)
	})
}

// SplitMix64 is the SplitMix64 output function (Steele et al.): the
// state advanced by the golden-ratio increment, then finalized. It is
// the repository's one copy, behind the filter key derivation
// (PROTOCOL.md), the band mixer's permutation stream and the
// experiments' key streams.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
