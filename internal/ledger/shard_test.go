package ledger

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"
	"time"

	"irs/internal/ids"
)

// TestShardedConcurrencyWithWAL hammers every mutating and reading
// entry point at once with durability on; run under -race this is the
// shard layer's main safety net.
func TestShardedConcurrencyWithWAL(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-claim a population for the op/status goroutines to chew on.
	const pre = 64
	o := newOwner(t)
	preIDs := make([]ids.PhotoID, pre)
	for i := 0; i < pre; i++ {
		preIDs[i] = o.claim(t, l, hashOf(fmt.Sprintf("pre-%d", i)), false).ID
	}

	const claimers, workers, iters = 4, 4, 50
	var wg sync.WaitGroup
	for g := 0; g < claimers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := newOwner(t)
			for i := 0; i < iters; i++ {
				h := hashOf(fmt.Sprintf("claim-%d-%d", g, i))
				if _, err := l.Claim(h, own.pub, ed25519.Sign(own.priv, ClaimMsg(h)), i%3 == 0); err != nil {
					t.Errorf("claim: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// The workers' slices of the pre-claimed ids overlap, so an
			// op signed from a stale read is refused: ErrBadSignature
			// when another worker's op landed before Apply loaded the
			// record, ErrBadOpSeq when it landed during verification.
			for i := 0; i < iters; i++ {
				id := preIDs[(g*iters+i)%pre]
				rec, err := l.Record(id)
				if err != nil {
					t.Errorf("record: %v", err)
					return
				}
				op := OpRevoke
				if rec.State == StateRevoked {
					op = OpUnrevoke
				}
				err = l.Apply(id, op, o.signOp(id, op, rec.OpSeq+1))
				if err != nil && err != ErrBadOpSeq && err != ErrBadSignature {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			page := make([]ids.PhotoID, 16)
			for i := 0; i < iters; i++ {
				if _, err := l.Status(preIDs[(g+i)%pre]); err != nil {
					t.Errorf("status: %v", err)
					return
				}
				for j := range page {
					page[j] = preIDs[(g*j+i)%pre]
				}
				proofs, err := l.StatusBatch(page)
				if err != nil {
					t.Errorf("status batch: %v", err)
					return
				}
				for j, p := range proofs {
					if p.ID != page[j] {
						t.Errorf("batch proof %d attests %v, want %v", j, p.ID, page[j])
						return
					}
				}
				if i%10 == 0 {
					if _, err := l.BuildSnapshot(); err != nil {
						t.Errorf("snapshot: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	claims, _ := l.Count()
	if want := pre + claimers*iters; claims != want {
		t.Errorf("claims = %d, want %d", claims, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything above must be recoverable: reopen and compare counts.
	l2, err := New(Config{ID: 1, Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	claims2, _ := l2.Count()
	if claims2 != claims {
		t.Errorf("recovered claims = %d, want %d", claims2, claims)
	}
}

// seededLedger builds an in-memory ledger with a deterministic ID
// stream and clock so two instances issue identical identifiers.
func seededLedger(t *testing.T, shards int, seed int64) *Ledger {
	t.Helper()
	at := time.Date(2022, 11, 14, 12, 0, 0, 0, time.UTC)
	l, err := New(Config{
		ID:     1,
		Shards: shards,
		Clock:  func() time.Time { return at },
		Rand:   mrand.New(mrand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestFilterSnapshotShardCountInvariant: the published filter bytes are
// part of the protocol (proxies delta against them), so the shard count
// must not leak into them.
func TestFilterSnapshotShardCountInvariant(t *testing.T) {
	o := newOwner(t)
	build := func(shards int) []byte {
		l := seededLedger(t, shards, 99)
		for i := 0; i < 300; i++ {
			o.claim(t, l, hashOf(fmt.Sprintf("photo-%d", i)), i%3 == 0)
		}
		if _, err := l.BuildSnapshot(); err != nil {
			t.Fatal(err)
		}
		_, f, err := l.FilterSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return f.Marshal()
	}
	one := build(1)
	many := build(64)
	if !bytes.Equal(one, many) {
		t.Errorf("filter snapshot differs between 1 and 64 shards (%d vs %d bytes)", len(one), len(many))
	}
}

// TestStatusBatchMatchesSerial: with a pinned clock, batch proofs must
// be byte-identical to the serial Status path — same states, same
// IssuedAt, same signatures.
func TestStatusBatchMatchesSerial(t *testing.T) {
	l := seededLedger(t, 64, 7)
	o := newOwner(t)
	var batch []ids.PhotoID
	for i := 0; i < 40; i++ {
		batch = append(batch, o.claim(t, l, hashOf(fmt.Sprintf("sb-%d", i)), i%2 == 0).ID)
	}
	unknown := mustID(t)
	batch = append(batch, unknown, batch[0]) // unknown + duplicate

	proofs, err := l.StatusBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(proofs) != len(batch) {
		t.Fatalf("got %d proofs for %d ids", len(proofs), len(batch))
	}
	for i, id := range batch {
		serial, err := l.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(proofs[i].Marshal(), serial.Marshal()) {
			t.Errorf("proof %d (%v) differs from serial Status", i, id)
		}
	}
	if proofs[len(batch)-2].State != StateUnknown {
		t.Errorf("unknown id state = %v", proofs[len(batch)-2].State)
	}
}

// TestStatusBatchEmpty covers the trivial edge.
func TestStatusBatchEmpty(t *testing.T) {
	l := newLedger(t)
	proofs, err := l.StatusBatch(nil)
	if err != nil || proofs != nil {
		t.Errorf("empty batch: %v, %v", proofs, err)
	}
}

// BenchmarkServingStatus measures the per-identifier validation path.
// It runs on the wall clock over 512 ids, so past the first pass of
// each second it is the proof memo's hit path.
func BenchmarkServingStatus(b *testing.B) {
	l, population := benchLedger(b, nil, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Status(population[i%len(population)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingStatusBatch measures the batched path at the browser
// page size over an in-memory ledger: /repeat asks for one page inside
// one second (every proof from the memo), /distinct moves the clock a
// second per iteration (every proof signed and stored — the path every
// batch took before the memo).
func BenchmarkServingStatusBatch(b *testing.B) { benchStatusBatch(b, false) }

// BenchmarkServingStatusBatchSegments is the same pair with every
// record flushed to a segment, so states come from lookupState.
func BenchmarkServingStatusBatchSegments(b *testing.B) { benchStatusBatch(b, true) }

var benchProofs []*StatusProof

func benchStatusBatch(b *testing.B, segments bool) {
	for _, distinct := range []bool{false, true} {
		name := "repeat"
		if distinct {
			name = "distinct"
		}
		b.Run(name, func(b *testing.B) {
			clock := newTestClock()
			l, population := benchLedger(b, clock.now, segments)
			page := make([]ids.PhotoID, 48)
			copy(page, population)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if distinct {
					clock.advance(time.Second)
					for j := range page {
						page[j] = population[(i*len(page)+j)%len(population)]
					}
				}
				proofs, err := l.StatusBatch(page)
				if err != nil {
					b.Fatal(err)
				}
				benchProofs = proofs
			}
		})
	}
}

func benchLedger(b *testing.B, clock func() time.Time, segments bool) (*Ledger, []ids.PhotoID) {
	b.Helper()
	cfg := Config{ID: 1, Clock: clock}
	if segments {
		cfg.Dir = b.TempDir()
	}
	l, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	o := newOwner(b)
	population := make([]ids.PhotoID, 512)
	for i := range population {
		population[i] = o.claim(b, l, hashOf(fmt.Sprintf("bench-%d", i)), i%8 == 0).ID
	}
	if err := l.Flush(); err != nil {
		b.Fatal(err)
	}
	return l, population
}
