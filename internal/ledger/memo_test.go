package ledger

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"irs/internal/ids"
)

// Tests for the per-second proof memo (proof.go) and the state-only
// segment read behind it (segReader.lookupState).

// testClock is an injected ledger clock the test moves by hand.
type testClock struct{ ns atomic.Int64 }

func newTestClock() *testClock {
	c := &testClock{}
	// A sub-second part, so truncation to the quantum is visible.
	c.ns.Store(time.Date(2022, 11, 14, 12, 0, 0, 123456789, time.UTC).UnixNano())
	return c
}

func (c *testClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *testClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// memoLedger builds a ledger on clock c; with segments it is backed by
// a directory and the caller decides what gets flushed.
func memoLedger(t testing.TB, c *testClock, segments bool, shards int) *Ledger {
	t.Helper()
	cfg := Config{ID: 1, Shards: shards, Clock: c.now, CompactAfter: 100}
	if segments {
		cfg.Dir = t.TempDir()
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// wantProof checks p against a signature computed directly from the
// ledger's key over the canonical message for (id, st, at).
func wantProof(t *testing.T, l *Ledger, p *StatusProof, id ids.PhotoID, st State, at time.Time) {
	t.Helper()
	if p.ID != id || p.State != st || !p.IssuedAt.Equal(at) {
		t.Fatalf("proof is (%v, %v, %v), want (%v, %v, %v)", p.ID, p.State, p.IssuedAt, id, st, at)
	}
	ref := &StatusProof{ID: id, State: st, IssuedAt: at}
	if want := ed25519.Sign(l.signKey, ref.canonical()); !bytes.Equal(p.Sig[:], want) {
		t.Fatalf("proof for %v (%v) does not carry the signature a fresh Sign returns", id, st)
	}
}

func memoEntries(l *Ledger) (n int) {
	for i := range l.shards {
		m := &l.shards[i].memo
		m.mu.Lock()
		n += len(m.sigs)
		m.mu.Unlock()
	}
	return n
}

// TestProofMemoByteIdentity: under a pinned clock every proof, signed
// or taken from the memo, by Status or by StatusBatch, in memory or
// read from a segment, is the proof ed25519.Sign produces for that
// (id, state, whole second) — and each caller owns its copy.
func TestProofMemoByteIdentity(t *testing.T) {
	for _, segments := range []bool{false, true} {
		t.Run(fmt.Sprintf("segments=%v", segments), func(t *testing.T) {
			c := newTestClock()
			l := memoLedger(t, c, segments, 8)
			o := newOwner(t)
			var batch []ids.PhotoID
			want := map[ids.PhotoID]State{}
			for i := 0; i < 24; i++ {
				id := o.claim(t, l, hashOf(fmt.Sprintf("memo-%d", i)), i%3 == 0).ID
				batch = append(batch, id)
				want[id] = StateActive
				if i%3 == 0 {
					want[id] = StateRevoked
				}
				if i == 11 { // half in segments, half in the memtable
					if err := l.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			unknown := mustID(t)
			batch = append(batch, unknown, batch[0])
			want[unknown] = StateUnknown
			// Each claim left its first proof in the memo; the queries
			// start in a second that holds none.
			c.advance(time.Second)
			at := c.now().UTC().Truncate(time.Second)

			for round := 0; round < 3; round++ {
				before := l.Metrics()
				proofs, err := l.StatusBatch(batch)
				if err != nil {
					t.Fatal(err)
				}
				for i, id := range batch {
					wantProof(t, l, proofs[i], id, want[id], at)
					p, err := l.Status(id)
					if err != nil {
						t.Fatal(err)
					}
					wantProof(t, l, p, id, want[id], at)
					// A caller scribbling on its proof must not reach the memo.
					p.Sig[0] ^= 0xff
					proofs[i].Sig[1] ^= 0xff
				}
				after := l.Metrics()
				queries := after.Queries - before.Queries
				signs, hits := after.ProofSigns-before.ProofSigns, after.ProofMemoHits-before.ProofMemoHits
				if queries != uint64(2*len(batch)) || signs+hits != queries {
					t.Fatalf("round %d: queries %d, signs %d, hits %d", round, queries, signs, hits)
				}
				// batch holds one id twice, so its first pass signs every slot.
				if wantSigns := uint64(len(batch)); round == 0 && signs != wantSigns {
					t.Fatalf("first round signed %d proofs, want %d", signs, wantSigns)
				}
				if round > 0 && signs != 0 {
					t.Fatalf("round %d signed %d proofs with the second unchanged", round, signs)
				}
			}
		})
	}
}

// TestStatusBatchAllocationBudget: a page of memo hits costs the
// batch's own allocations — the index scratch, the proof array and the
// pointer slice over it — and not two objects a proof. Status, which
// has no batch to share, costs its one proof.
func TestStatusBatchAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted without the race detector")
	}
	l := memoLedger(t, newTestClock(), false, 8)
	o := newOwner(t)
	batch := make([]ids.PhotoID, 37)
	for i := range batch {
		// Each claim leaves its first proof in the memo of this second.
		batch[i] = o.claim(t, l, hashOf(fmt.Sprintf("budget-%d", i)), i%5 == 0).ID
	}
	before := l.Metrics()
	perBatch := testing.AllocsPerRun(100, func() {
		if _, err := l.StatusBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	perStatus := testing.AllocsPerRun(100, func() {
		if _, err := l.Status(batch[0]); err != nil {
			t.Fatal(err)
		}
	})
	if m := l.Metrics(); m.ProofSigns != before.ProofSigns {
		t.Fatalf("%d proofs were signed; the budget is for memo hits", m.ProofSigns-before.ProofSigns)
	}
	if perBatch > 4 {
		t.Errorf("StatusBatch of %d memo hits: %.0f allocations, budget 4", len(batch), perBatch)
	}
	if perStatus > 1 {
		t.Errorf("Status memo hit: %.0f allocations, budget 1", perStatus)
	}
	t.Logf("allocations: StatusBatch(%d hits) %.0f, Status %.0f", len(batch), perBatch, perStatus)
}

// TestStatusBatchIntoAllocatesNothing: answered into a scratch that has
// held a page before, a page of memo hits allocates nothing — the entry
// point a server's pooled request scratch uses — and its proofs equal
// the allocating StatusBatch's.
func TestStatusBatchIntoAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted without the race detector")
	}
	l := memoLedger(t, newTestClock(), false, 8)
	o := newOwner(t)
	batch := make([]ids.PhotoID, 37)
	for i := range batch {
		batch[i] = o.claim(t, l, hashOf(fmt.Sprintf("into-%d", i)), i%5 == 0).ID
	}
	var sc BatchScratch
	before := l.Metrics()
	var got []*StatusProof
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if got, err = l.StatusBatchInto(&sc, batch); err != nil {
			t.Fatal(err)
		}
	})
	if m := l.Metrics(); m.ProofSigns != before.ProofSigns {
		t.Fatalf("%d proofs were signed; the budget is for memo hits", m.ProofSigns-before.ProofSigns)
	}
	if allocs != 0 {
		t.Errorf("StatusBatchInto of %d memo hits: %.0f allocations, want 0", len(batch), allocs)
	}
	want, err := l.StatusBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if *got[i] != *want[i] {
			t.Fatalf("proof %d: %+v into the scratch, %+v allocated", i, got[i], want[i])
		}
	}
}

// TestStatusBatchIntoReusedScratch: one scratch answering pages of
// shrinking and growing size, of revoked, active and unknown ids on an
// in-memory and a segment ledger, answers each as StatusBatch does:
// nothing of an earlier page's proofs shows through.
func TestStatusBatchIntoReusedScratch(t *testing.T) {
	for _, segments := range []bool{false, true} {
		l := memoLedger(t, newTestClock(), segments, 4)
		o := newOwner(t)
		var pool []ids.PhotoID
		for i := 0; i < 24; i++ {
			pool = append(pool, o.claim(t, l, hashOf(fmt.Sprintf("reuse-%d", i)), i%2 == 0).ID)
			pool = append(pool, mustID(t))
		}
		var sc BatchScratch
		for _, n := range []int{48, 3, 17, 1, 48, 30} {
			batch := make([]ids.PhotoID, n)
			for i := range batch {
				batch[i] = pool[(i*7+n)%len(pool)]
			}
			got, err := l.StatusBatchInto(&sc, batch)
			if err != nil {
				t.Fatal(err)
			}
			want, err := l.StatusBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("segments=%v: %d proofs for %d ids", segments, len(got), n)
			}
			for i := range want {
				if *got[i] != *want[i] {
					t.Fatalf("segments=%v, page of %d: proof %d is %+v, want %+v", segments, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestUnmarshalProofRejectsUndefinedState: the one decode point refuses
// a state byte outside the four defined states, so no cache or viewer
// downstream ever holds one; every defined state still round-trips.
func TestUnmarshalProofRejectsUndefinedState(t *testing.T) {
	l := memoLedger(t, newTestClock(), false, 1)
	p, err := l.Status(mustID(t))
	if err != nil {
		t.Fatal(err)
	}
	raw := p.Marshal()
	for b := 0; b < 256; b++ {
		raw[30] = byte(b)
		var into StatusProof
		got, err := UnmarshalProof(raw)
		if ierr := into.Unmarshal(raw); (err == nil) != (ierr == nil) {
			t.Fatalf("state byte %d: UnmarshalProof %v, Unmarshal %v", b, err, ierr)
		}
		if State(b) <= StatePermanentlyRevoked {
			if err != nil || got.State != State(b) || *got != into || !bytes.Equal(got.Marshal(), raw) {
				t.Fatalf("state byte %d did not round-trip: %v", b, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("state byte %d accepted", b)
		}
		if into != (StatusProof{}) {
			t.Fatalf("state byte %d: a refused decode wrote to its destination", b)
		}
	}
}

// TestClaimProofMatchesStatus: the proof a claim's receipt carries is
// the claim's first status proof — born in the state the claim was
// born in, verifiable like any other, counted as no query — and it
// goes through the memo, so a Status of the same second returns the
// same bytes without signing again, from the memtable or a segment.
func TestClaimProofMatchesStatus(t *testing.T) {
	for _, segments := range []bool{false, true} {
		t.Run(fmt.Sprintf("segments=%v", segments), func(t *testing.T) {
			c := newTestClock()
			l := memoLedger(t, c, segments, 8)
			o := newOwner(t)
			at := c.now().UTC().Truncate(time.Second)
			claims := []struct {
				name string
				make func(hash [32]byte) (Receipt, error)
				want State
			}{
				{"active", func(h [32]byte) (Receipt, error) {
					return l.Claim(h, o.pub, ed25519.Sign(o.priv, ClaimMsg(h)), false)
				}, StateActive},
				{"revoked at birth", func(h [32]byte) (Receipt, error) {
					return l.Claim(h, o.pub, ed25519.Sign(o.priv, ClaimMsg(h)), true)
				}, StateRevoked},
				{"custodial", func(h [32]byte) (Receipt, error) {
					return l.CustodialClaim(h, o.pub, ed25519.Sign(o.priv, ClaimMsg(h)))
				}, StateActive},
			}
			for _, tc := range claims {
				before := l.Metrics()
				r, err := tc.make(hashOf("claim-proof-" + tc.name))
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if r.Proof == nil {
					t.Fatalf("%s: receipt carries no proof", tc.name)
				}
				wantProof(t, l, r.Proof, r.ID, tc.want, at)
				if err := VerifyProof(l.SigningKey(), r.Proof, c.now(), time.Minute); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if m := l.Metrics(); m.Queries != before.Queries || m.ProofSigns != before.ProofSigns || m.ProofMemoHits != before.ProofMemoHits {
					t.Fatalf("%s: the claim moved the query counters: %+v → %+v", tc.name, before, m)
				}
				if segments { // the record leaves the memtable: Status reads the segment
					if err := l.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				p, err := l.Status(r.ID)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(p.Marshal(), r.Proof.Marshal()) {
					t.Fatalf("%s: Status in the claim's second differs from the claim's proof", tc.name)
				}
				if m := l.Metrics(); m.ProofMemoHits != before.ProofMemoHits+1 || m.ProofSigns != before.ProofSigns {
					t.Fatalf("%s: that Status signed again: %+v → %+v", tc.name, before, m)
				}
				// The caller owns its proof: scribbling on it must not reach the memo.
				r.Proof.Sig[0] ^= 0xff
				if p, err = l.Status(r.ID); err != nil {
					t.Fatal(err)
				}
				wantProof(t, l, p, r.ID, tc.want, at)
			}
		})
	}
}

// TestProofMemoFollowsState: the memo is keyed by the state read from
// the record, so a state change inside one second needs no invalidation
// — the next query misses on its own, and flipping back finds the first
// signature again.
func TestProofMemoFollowsState(t *testing.T) {
	for _, segments := range []bool{false, true} {
		t.Run(fmt.Sprintf("segments=%v", segments), func(t *testing.T) {
			c := newTestClock()
			l := memoLedger(t, c, segments, 8)
			o := newOwner(t)
			id := o.claim(t, l, hashOf("flip"), false).ID
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			at := c.now().UTC().Truncate(time.Second)
			status := func(want State) *StatusProof {
				t.Helper()
				p, err := l.Status(id)
				if err != nil {
					t.Fatal(err)
				}
				wantProof(t, l, p, id, want, at)
				b, err := l.StatusBatch([]ids.PhotoID{id})
				if err != nil {
					t.Fatal(err)
				}
				wantProof(t, l, b[0], id, want, at)
				return p
			}
			first := status(StateActive)
			if err := l.Apply(id, OpRevoke, o.signOp(id, OpRevoke, 1)); err != nil {
				t.Fatal(err)
			}
			status(StateRevoked)
			if err := l.Apply(id, OpUnrevoke, o.signOp(id, OpUnrevoke, 2)); err != nil {
				t.Fatal(err)
			}
			third := status(StateActive)
			if !bytes.Equal(first.Marshal(), third.Marshal()) {
				t.Fatal("active proof after revoke+unrevoke differs from the first of the same second")
			}
			if err := l.PermanentRevoke(id); err != nil {
				t.Fatal(err)
			}
			status(StatePermanentlyRevoked)
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			status(StatePermanentlyRevoked)
		})
	}
}

// TestProofMemoRollover: one second later every query misses, carries
// the new IssuedAt, and nothing signed for the old second can be
// returned again.
func TestProofMemoRollover(t *testing.T) {
	c := newTestClock()
	l := memoLedger(t, c, false, 4)
	o := newOwner(t)
	var batch []ids.PhotoID
	for i := 0; i < 32; i++ {
		batch = append(batch, o.claim(t, l, hashOf(fmt.Sprintf("roll-%d", i)), i%2 == 0).ID)
	}
	c.advance(time.Second) // past the second whose memo the claims filled
	query := func() (at time.Time, signs, hits uint64) {
		t.Helper()
		before := l.Metrics()
		proofs, err := l.StatusBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		at = c.now().UTC().Truncate(time.Second)
		for i, id := range batch {
			st := StateActive
			if i%2 == 0 {
				st = StateRevoked
			}
			wantProof(t, l, proofs[i], id, st, at)
		}
		after := l.Metrics()
		return at, after.ProofSigns - before.ProofSigns, after.ProofMemoHits - before.ProofMemoHits
	}
	n := uint64(len(batch))
	at0, signs, hits := query()
	if signs != n || hits != 0 {
		t.Fatalf("cold: signs %d hits %d", signs, hits)
	}
	c.advance(400 * time.Millisecond) // same second
	if at, signs, hits := query(); !at.Equal(at0) || signs != 0 || hits != n {
		t.Fatalf("same second: at %v signs %d hits %d", at, signs, hits)
	}
	c.advance(time.Second)
	at1, signs, hits := query()
	if !at1.Equal(at0.Add(time.Second)) || signs != n || hits != 0 {
		t.Fatalf("next second: at %v signs %d hits %d", at1, signs, hits)
	}
	for i := range l.shards {
		m := &l.shards[i].memo
		if len(m.sigs) > 0 && !m.at.Equal(at1) {
			t.Fatalf("shard %d still holds %d signatures of %v", i, len(m.sigs), m.at)
		}
	}
	if got := memoEntries(l); got != len(batch) {
		t.Fatalf("memo holds %d entries after rollover, want %d", got, len(batch))
	}
	if _, signs, hits := query(); signs != 0 || hits != n {
		t.Fatalf("repeat in the new second: signs %d hits %d", signs, hits)
	}
}

// TestProofMemoCap: past the entry cap proofs are still signed and
// still right; they are just not stored.
func TestProofMemoCap(t *testing.T) {
	c := newTestClock()
	l := memoLedger(t, c, false, 2)
	const perShard = 3
	for i := range l.shards {
		l.shards[i].memo.max = perShard
	}
	o := newOwner(t)
	var batch []ids.PhotoID
	for i := 0; i < 40; i++ {
		batch = append(batch, o.claim(t, l, hashOf(fmt.Sprintf("cap-%d", i)), false).ID)
	}
	at := c.now().UTC().Truncate(time.Second)
	for round := 0; round < 3; round++ {
		before := l.Metrics()
		proofs, err := l.StatusBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range batch {
			wantProof(t, l, proofs[i], id, StateActive, at)
			p, err := l.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			wantProof(t, l, p, id, StateActive, at)
		}
		if got, max := memoEntries(l), perShard*len(l.shards); got != max {
			t.Fatalf("round %d: memo holds %d entries, cap is %d", round, got, max)
		}
		after := l.Metrics()
		if hits := after.ProofMemoHits - before.ProofMemoHits; round > 0 && hits != 2*perShard*uint64(len(l.shards)) {
			t.Fatalf("round %d: %d hits from a full memo of %d", round, hits, perShard*len(l.shards))
		}
	}
	if def := memoMaxEntries / defaultShards; newShards(defaultShards)[0].memo.max != def {
		t.Fatalf("default per-shard cap is not memoMaxEntries/shards = %d", def)
	}
}

// TestProofMemoHammer runs StatusBatch against Apply, memtable flushes
// and a moving clock. Each worker owns some ids: it alone flips them,
// so for those its own last write is a serial oracle; the fixed ids
// have one state throughout. Every proof must verify.
func TestProofMemoHammer(t *testing.T) {
	c := newTestClock()
	l, err := New(Config{ID: 1, Dir: t.TempDir(), Clock: c.now, MemtableRecords: 16, CompactAfter: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const workers, owned, rounds = 4, 4, 40
	o := newOwner(t)
	fixed := map[ids.PhotoID]State{mustID(t): StateUnknown}
	var all []ids.PhotoID
	for i := 0; i < 16; i++ {
		id := o.claim(t, l, hashOf(fmt.Sprintf("fixed-%d", i)), i%2 == 0).ID
		fixed[id] = StateActive
		if i%2 == 0 {
			fixed[id] = StateRevoked
		}
	}
	for id := range fixed {
		all = append(all, id)
	}
	mine := make([][]ids.PhotoID, workers)
	for w := range mine {
		for i := 0; i < owned; i++ {
			id := o.claim(t, l, hashOf(fmt.Sprintf("own-%d-%d", w, i)), false).ID
			mine[w] = append(mine[w], id)
			all = append(all, id)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // flusher, and the hand on the clock
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Flush(); err != nil {
				t.Error(err)
				return
			}
			c.advance(300 * time.Millisecond)
		}
	}()
	var workersWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			state := map[ids.PhotoID]State{}
			seq := map[ids.PhotoID]uint64{}
			for _, id := range mine[w] {
				state[id] = StateActive
			}
			for r := 0; r < rounds; r++ {
				id := mine[w][r%owned]
				op, next := OpRevoke, StateRevoked
				if state[id] == StateRevoked {
					op, next = OpUnrevoke, StateActive
				}
				seq[id]++
				if err := l.Apply(id, op, o.signOp(id, op, seq[id])); err != nil {
					t.Errorf("worker %d: apply: %v", w, err)
					return
				}
				state[id] = next
				proofs, err := l.StatusBatch(all)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				single, err := l.Status(id)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				for i, p := range append(proofs, single) {
					if err := VerifyProof(l.SigningKey(), p, p.IssuedAt, 0); err != nil {
						t.Errorf("worker %d: proof %d: %v", w, i, err)
						return
					}
					if p.IssuedAt.Nanosecond() != 0 {
						t.Errorf("worker %d: IssuedAt %v is not a whole second", w, p.IssuedAt)
						return
					}
					want, known := fixed[p.ID]
					if !known {
						want, known = state[p.ID]
					}
					if known && p.State != want {
						t.Errorf("worker %d round %d: %v proved %v, oracle says %v", w, r, p.ID, p.State, want)
						return
					}
					if !known && p.State != StateActive && p.State != StateRevoked {
						t.Errorf("worker %d: %v proved %v", w, p.ID, p.State)
						return
					}
				}
			}
		}(w)
	}
	workersWG.Wait()
	close(stop)
	wg.Wait()
	if m := l.Metrics(); m.ProofSigns+m.ProofMemoHits != m.Queries || m.ProofMemoHits == 0 {
		t.Fatalf("queries %d != signs %d + hits %d (hits must be > 0)", m.Queries, m.ProofSigns, m.ProofMemoHits)
	}
}

// segLookup decodes the identifier's claim frame in one segment.
func segLookup(sr *segReader, id ids.PhotoID) (*Record, bool, error) {
	payload, ok, err := sr.find(id)
	if !ok {
		return nil, false, err
	}
	r, err := decodeRecord(payload)
	if err != nil {
		return nil, false, err
	}
	return r.rec, true, nil
}

// TestLookupStateMatchesLookup: over a store of several segments with
// shadowed versions, the state-only read agrees with the decoding one
// for every identifier, per segment and through the engine, and a
// corrupted frame fails both the same way.
func TestLookupStateMatchesLookup(t *testing.T) {
	c := newTestClock()
	l := memoLedger(t, c, true, 8)
	o := newOwner(t)
	var all []ids.PhotoID
	flush := func() {
		t.Helper()
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	bornRevoked := map[ids.PhotoID]bool{}
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 50; i++ {
			id := o.claim(t, l, hashOf(fmt.Sprintf("ls-%d-%d", gen, i)), i%7 == 0).ID
			all = append(all, id)
			bornRevoked[id] = i%7 == 0
		}
		flush()
	}
	// Newer versions that shadow sealed ones, in two more segments.
	for i := 0; i < len(all); i += 5 {
		if bornRevoked[all[i]] {
			continue
		}
		if err := l.Apply(all[i], OpRevoke, o.signOp(all[i], OpRevoke, 1)); err != nil {
			t.Fatal(err)
		}
	}
	flush()
	for i := 0; i < len(all); i += 20 {
		if err := l.PermanentRevoke(all[i]); err != nil {
			t.Fatal(err)
		}
	}
	flush()
	for i := 0; i < 40; i++ {
		all = append(all, mustID(t)) // never claimed
	}

	segs := l.store.segs.Load().segs
	if len(segs) < 5 {
		t.Fatalf("store has %d segments, want 5", len(segs))
	}
	states := map[State]int{}
	for _, id := range all {
		for si, sr := range segs {
			rec, ok, err := segLookup(sr, id)
			st, okS, errS := sr.lookupState(id)
			if err != nil || errS != nil || ok != okS || (ok && rec.State != st) || (!ok && st != StateUnknown) {
				t.Fatalf("segment %d, %v: lookup (%v, %v, %v) vs lookupState (%v, %v, %v)", si, id, rec, ok, err, st, okS, errS)
			}
		}
		rec, ok, err := l.store.lookup(id)
		st, errS := l.store.lookupState(id)
		if err != nil || errS != nil || (ok && rec.State != st) || (!ok && st != StateUnknown) {
			t.Fatalf("engine, %v: lookup (%v, %v, %v) vs lookupState (%v, %v)", id, rec, ok, err, st, errS)
		}
		states[st]++
	}
	for _, st := range []State{StateUnknown, StateActive, StateRevoked, StatePermanentlyRevoked} {
		if states[st] == 0 {
			t.Fatalf("no identifier in state %v: %v", st, states)
		}
	}

	// Flip one payload byte of the first frame of the oldest segment.
	oldest := segs[len(segs)-1]
	raw, err := os.ReadFile(oldest.path)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := frameAt(raw[:oldest.dataEnd], oldest.dataStart)
	if err != nil {
		t.Fatal(err)
	}
	var victim [16]byte
	copy(victim[:], payload[1:17])
	raw[oldest.dataStart+frameHeaderSize+40] ^= 0x01
	bad := filepath.Join(t.TempDir(), "bad.seg")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sr, err := openSegment(bad)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.close()
	_, _, err = segLookup(sr, ids.FromBytes(victim))
	_, _, errS := sr.lookupState(ids.FromBytes(victim))
	if !errors.Is(err, errFrameCorrupt) || !errors.Is(errS, errFrameCorrupt) {
		t.Fatalf("corrupted frame: lookup %v, lookupState %v, want both %v", err, errS, errFrameCorrupt)
	}
}
