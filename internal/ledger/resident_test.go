package ledger

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"irs/internal/ids"
)

// Tests for the read order memtable → resident revoked set → segments
// (shard.state): the set is authoritative for a revoked id's state, so
// its value must record permanence through every path that maintains
// it.

// refState is the read Status and StatusBatch made before the resident
// set answered revoked ids, kept as the oracle: the memtable, else the
// segments' state byte.
func refState(t testing.TB, l *Ledger, id ids.PhotoID) State {
	t.Helper()
	sh := l.shardFor(id)
	sh.mu.RLock()
	rec, ok := sh.records[id]
	var st State
	if ok {
		st = rec.State
	}
	sh.mu.RUnlock()
	if !ok && l.store != nil {
		var err error
		if st, err = l.store.lookupState(id); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// resident reads id's entry in the resident set.
func resident(l *Ledger, id ids.PhotoID) (perm, present bool) {
	sh := l.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	perm, present = sh.revoked[id]
	return perm, present
}

// checkStates asks Status and StatusBatch for every id of want and
// demands the oracle's state, the model's state, and one set of proof
// bytes; with fresh, each proof is also the one ed25519.Sign produces.
func checkStates(t *testing.T, l *Ledger, c *testClock, want map[ids.PhotoID]State, batch []ids.PhotoID, fresh bool, step string) {
	t.Helper()
	proofs, err := l.StatusBatch(batch)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	at := c.now().UTC().Truncate(time.Second)
	for i, id := range batch {
		ref := refState(t, l, id)
		if ref != want[id] {
			t.Fatalf("%s: oracle reads %v for %v, the model %v", step, ref, id, want[id])
		}
		p, err := l.Status(id)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if p.State != ref || proofs[i].State != ref {
			t.Fatalf("%s: %v is %v by Status and %v by StatusBatch, oracle %v", step, id, p.State, proofs[i].State, ref)
		}
		if !bytes.Equal(p.Marshal(), proofs[i].Marshal()) {
			t.Fatalf("%s: Status and StatusBatch proofs of %v differ", step, id)
		}
		if fresh {
			wantProof(t, l, p, id, ref, at)
		}
	}
}

// TestResidentStateMatchesSegmentRead is the differential: seeded
// histories of claims (revoked at birth and custodial among them),
// revoke/unrevoke, permanent revocation, RestoreRecords replacing
// versions, flushes, 4-way compactions, and reopens with and without a
// WAL tail to replay. After every step Status and StatusBatch must
// answer every claimed and never-claimed id as the segment read did.
func TestResidentStateMatchesSegmentRead(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := newTestClock()
			cfg := Config{ID: 1, Dir: t.TempDir(), Shards: 8, Clock: c.now,
				MemtableRecords: 1 << 20, CompactAfter: 1 << 20}
			open := func(gen int64) *Ledger {
				cfg.Rand = rand.New(rand.NewSource(seed*1000 + gen))
				l, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return l
			}
			l := open(0)
			t.Cleanup(func() { l.Close() })
			o := newOwner(t)
			templates := makeRecords(t, 1, 400, seed)

			want := map[ids.PhotoID]State{}
			seq := map[ids.PhotoID]uint64{}
			var claimed []ids.PhotoID
			batch := make([]ids.PhotoID, 0, 512)
			for i := 0; i < 16; i++ {
				id := mustID(t)
				batch = append(batch, id)
				want[id] = StateUnknown
			}
			add := func(id ids.PhotoID, st State) {
				if _, ok := want[id]; !ok {
					claimed = append(claimed, id)
					batch = append(batch, id)
				}
				want[id] = st
			}
			pick := func() ids.PhotoID { return claimed[rng.Intn(len(claimed))] }

			mutate := func() string {
				switch k := rng.Intn(6); {
				case k <= 1 || len(claimed) < 8:
					h := hashOf(fmt.Sprintf("diff-%d-%d", seed, rng.Int63()))
					sig := ed25519.Sign(o.priv, ClaimMsg(h))
					var r Receipt
					var err error
					born := StateActive
					if k == 1 {
						r, err = l.CustodialClaim(h, o.pub, sig)
					} else {
						atBirth := rng.Intn(3) == 0
						if atBirth {
							born = StateRevoked
						}
						r, err = l.Claim(h, o.pub, sig, atBirth)
					}
					if err != nil {
						t.Fatal(err)
					}
					add(r.ID, born)
					return "claim"
				case k == 2:
					id := pick()
					if want[id] == StatePermanentlyRevoked {
						return "skip"
					}
					op, next := OpRevoke, StateRevoked
					if want[id] == StateRevoked {
						op, next = OpUnrevoke, StateActive
					}
					seq[id]++
					if err := l.Apply(id, op, o.signOp(id, op, seq[id])); err != nil {
						t.Fatal(err)
					}
					want[id] = next
					return "apply"
				case k == 3:
					id := pick()
					if err := l.PermanentRevoke(id); err != nil {
						t.Fatal(err)
					}
					want[id] = StatePermanentlyRevoked
					return "permanent"
				default:
					// Three new records and newer versions of up to three held ones.
					var recs []Record
					seen := map[ids.PhotoID]bool{}
					for j := 0; j < 6; j++ {
						r := templates[rng.Intn(len(templates))]
						r.PubKey = o.pub
						r.State = State(1 + rng.Intn(3))
						if j >= 3 {
							r.ID = pick()
						} else if _, ok := want[r.ID]; ok {
							continue // drawn before: leave it to the replacing half
						}
						if seen[r.ID] {
							continue
						}
						if j >= 3 {
							seq[r.ID]++
						}
						seen[r.ID] = true
						r.OpSeq = seq[r.ID]
						recs = append(recs, r)
					}
					if err := l.RestoreRecords(recs); err != nil {
						t.Fatal(err)
					}
					for _, r := range recs {
						add(r.ID, r.State)
					}
					return "restore"
				}
			}

			var compactions, tailReplays int
			for s := 0; s < 90; s++ {
				step := ""
				switch {
				case s%23 == 17:
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					mem := 0
					l = open(int64(s))
					for i := range l.shards {
						mem += len(l.shards[i].records)
					}
					if mem > 0 {
						tailReplays++
					}
					step = fmt.Sprintf("reopen (%d replayed)", mem)
				case s%11 == 10 && len(*l.store.segs.Load()) >= 4:
					if err := l.Compact(); err != nil {
						t.Fatal(err)
					}
					compactions++
					step = "compact"
				case s%5 == 4:
					if err := l.Flush(); err != nil {
						t.Fatal(err)
					}
					step = "flush"
				default:
					for j := 0; j < 3; j++ {
						step += mutate() + " "
					}
				}
				checkStates(t, l, c, want, batch, s%8 == 0 || s%23 == 17, fmt.Sprintf("step %d (%s)", s, step))
			}
			states := map[State]int{}
			for _, st := range want {
				states[st]++
			}
			if compactions == 0 || tailReplays == 0 || states[StatePermanentlyRevoked] == 0 || states[StateRevoked] == 0 {
				t.Fatalf("history too thin: %d compactions, %d tail replays, states %v", compactions, tailReplays, states)
			}
		})
	}
}

// TestPermanenceSurvivesReopen: a permanent revocation sealed in a
// segment, shadowing a plain one, restored then compacted, or left in
// the WAL tail, is recovered as permanent — and a plain revocation as
// plain — by the resident set and by every read.
func TestPermanenceSurvivesReopen(t *testing.T) {
	c := newTestClock()
	dir := t.TempDir()
	l, err := New(Config{ID: 1, Dir: dir, Clock: c.now})
	if err != nil {
		t.Fatal(err)
	}
	o := newOwner(t)
	flush := func() {
		t.Helper()
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	want := map[ids.PhotoID]State{}
	claim := func(name string, revoked bool) ids.PhotoID {
		id := o.claim(t, l, hashOf(name), revoked).ID
		want[id] = StateActive
		if revoked {
			want[id] = StateRevoked
		}
		return id
	}
	permanent := func(id ids.PhotoID) {
		t.Helper()
		if err := l.PermanentRevoke(id); err != nil {
			t.Fatal(err)
		}
		want[id] = StatePermanentlyRevoked
	}

	sealed := claim("sealed", false)
	claim("plain", true)
	permanent(sealed)
	flush()
	shadowing := claim("shadowing", true)
	flush()
	permanent(shadowing) // newer segment: permanent; older: revoked
	flush()
	recs := makeRecords(t, 1, 2, 5)
	recs[0].State, recs[1].State = StatePermanentlyRevoked, StateRevoked
	if err := l.RestoreRecords(recs); err != nil {
		t.Fatal(err)
	}
	want[recs[0].ID], want[recs[1].ID] = recs[0].State, recs[1].State
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	permanent(claim("in the wal tail", false))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if l, err = New(Config{ID: 1, Dir: dir, Clock: c.now}); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var batch []ids.PhotoID
	for id, st := range want {
		batch = append(batch, id)
		perm, present := resident(l, id)
		if present != (st != StateActive) || perm != (st == StatePermanentlyRevoked) {
			t.Errorf("%v (%v): resident entry (%v, present %v) after reopen", id, st, perm, present)
		}
	}
	checkStates(t, l, c, want, batch, true, "reopened")
}

// TestResidentSetRollsBackOnWALFailure: when the WAL refuses an Apply
// or a PermanentRevoke, the set's entry and value are the pre-op ones —
// a revoked id keeps its plain entry, not none and not a permanent one.
func TestResidentSetRollsBackOnWALFailure(t *testing.T) {
	c := newTestClock()
	l := memoLedger(t, c, true, 8)
	o := newOwner(t)
	active := o.claim(t, l, hashOf("rb-active"), false).ID
	revoked := o.claim(t, l, hashOf("rb-revoked"), true).ID
	if err := l.Flush(); err != nil { // both now answered from segments and the set
		t.Fatal(err)
	}
	inMem := o.claim(t, l, hashOf("rb-memtable"), true).ID
	want := map[ids.PhotoID]State{active: StateActive, revoked: StateRevoked, inMem: StateRevoked}

	w := l.store.wal
	w.mu.Lock()
	w.f.Close() // every later append fails, and stays failed
	w.mu.Unlock()

	for _, tc := range []struct {
		name string
		id   ids.PhotoID
		do   func(id ids.PhotoID) error
	}{
		{"revoke active", active, func(id ids.PhotoID) error { return l.Apply(id, OpRevoke, o.signOp(id, OpRevoke, 1)) }},
		{"unrevoke revoked", revoked, func(id ids.PhotoID) error { return l.Apply(id, OpUnrevoke, o.signOp(id, OpUnrevoke, 1)) }},
		{"unrevoke in memtable", inMem, func(id ids.PhotoID) error { return l.Apply(id, OpUnrevoke, o.signOp(id, OpUnrevoke, 1)) }},
		{"permanent active", active, l.PermanentRevoke},
		{"permanent revoked", revoked, l.PermanentRevoke},
		{"permanent in memtable", inMem, l.PermanentRevoke},
	} {
		perm, present := resident(l, tc.id)
		if err := tc.do(tc.id); err == nil {
			t.Fatalf("%s: succeeded with the WAL closed", tc.name)
		}
		if p, ok := resident(l, tc.id); p != perm || ok != present {
			t.Errorf("%s: resident entry (%v, present %v), before the op (%v, present %v)", tc.name, p, ok, perm, present)
		}
		checkStates(t, l, c, want, []ids.PhotoID{tc.id}, true, tc.name)
	}
}

// TestResidentSetHammer runs owner operations, permanent revocations
// and StatusBatch against background flushes and compactions. Every id
// walks a fixed plan of states, and a writer publishes how many steps
// it has completed, so a reader knows which states an id held during
// its call: those from the count before the call to one past the count
// after it.
func TestResidentSetHammer(t *testing.T) {
	l, err := New(Config{ID: 1, Dir: t.TempDir(), MemtableRecords: 16, CompactAfter: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	o := newOwner(t)
	const writers, owned, flips = 3, 6, 30
	type plan struct {
		id     ids.PhotoID
		states []State
		done   atomic.Int64
	}
	plans := make([][]*plan, writers)
	var batch []ids.PhotoID
	var all []*plan
	for w := range plans {
		for i := 0; i < owned; i++ {
			born := (w+i)%2 == 0
			p := &plan{id: o.claim(t, l, hashOf(fmt.Sprintf("hammer-%d-%d", w, i)), born).ID}
			st := StateActive
			if born {
				st = StateRevoked
			}
			for k := 0; k <= flips; k++ {
				p.states = append(p.states, st)
				if st == StateActive {
					st = StateRevoked
				} else {
					st = StateActive
				}
			}
			p.states = append(p.states, StatePermanentlyRevoked)
			plans[w] = append(plans[w], p)
			all = append(all, p)
			batch = append(batch, p.id)
		}
	}
	batch = append(batch, mustID(t)) // never claimed
	// With the claims sealed, any compaction after the first op merges
	// two segments at least.
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	var bg, writersWG, readersWG sync.WaitGroup
	stop := make(chan struct{})
	bg.Add(1)
	go func() {
		defer bg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			f := l.Flush
			if n%2 == 1 {
				f = l.Compact
			}
			if err := f(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := range plans {
		writersWG.Add(1)
		go func(mine []*plan) {
			defer writersWG.Done()
			for k := 1; k < len(mine[0].states); k++ {
				if k == len(mine[0].states)/2 {
					// The second half runs beside a compaction at least.
					for end := time.Now().Add(10 * time.Second); l.StorageStats().Compactions == 0 && time.Now().Before(end); {
						time.Sleep(time.Millisecond)
					}
				}
				for _, p := range mine {
					var err error
					switch p.states[k] {
					case StatePermanentlyRevoked:
						err = l.PermanentRevoke(p.id)
					case StateRevoked:
						err = l.Apply(p.id, OpRevoke, o.signOp(p.id, OpRevoke, uint64(k)))
					default:
						err = l.Apply(p.id, OpUnrevoke, o.signOp(p.id, OpUnrevoke, uint64(k)))
					}
					if err != nil {
						t.Errorf("%v step %d: %v", p.id, k, err)
						return
					}
					p.done.Store(int64(k))
				}
			}
		}(plans[w])
	}
	var writing atomic.Bool
	writing.Store(true)
	read := func() bool {
		before := make([]int64, len(all))
		for i, p := range all {
			before[i] = p.done.Load()
		}
		proofs, err := l.StatusBatch(batch)
		if err != nil {
			t.Error(err)
			return false
		}
		for i, p := range all {
			after := min(p.done.Load()+1, int64(len(p.states)-1))
			held := p.states[before[i] : after+1]
			if !slices.Contains(held, proofs[i].State) {
				t.Errorf("%v answered %v; during the call it held %v", p.id, proofs[i].State, held)
				return false
			}
		}
		if st := proofs[len(all)].State; st != StateUnknown {
			t.Errorf("never-claimed id answered %v", st)
			return false
		}
		return true
	}
	for r := 0; r < 2; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for writing.Load() && read() {
			}
		}()
	}
	writersWG.Wait()
	writing.Store(false)
	readersWG.Wait()
	close(stop)
	bg.Wait()
	read()
	if st := l.StorageStats(); st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("the hammer ran beside %d flushes and %d compactions", st.Flushes, st.Compactions)
	}
}

// BenchmarkStatusBatchFilterPositive is the query mix a ledger sees
// behind a proxy's filter (§4.4: only a filter hit reaches the ledger):
// 100,000 claims sealed in segments, pages of 37 ids drawn from the
// 2,000 revoked ones and 300 active false positives, as
// pageview_resolve's proxy sends them. The clock is pinned and every
// proof signed before the timer starts, so it times the state reads and
// the memo, not Ed25519.
func BenchmarkStatusBatchFilterPositive(b *testing.B) {
	const claims, revoked, falsePositives, page = 100_000, 2_000, 300, 37
	c := newTestClock()
	l, err := New(Config{ID: 1, Dir: b.TempDir(), Clock: c.now})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	recs := makeRecords(b, 1, claims, 25)
	for i := range recs {
		recs[i].State = StateActive
		if i < revoked {
			recs[i].State = StateRevoked
		}
	}
	if err := l.RestoreRecords(recs); err != nil {
		b.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		b.Fatal(err)
	}
	positive := make([]ids.PhotoID, 0, revoked+falsePositives)
	for i := 0; i < revoked+falsePositives; i++ {
		positive = append(positive, recs[i].ID)
	}
	if _, err := l.StatusBatch(positive); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	pages := make([][]ids.PhotoID, 64)
	for i := range pages {
		pages[i] = make([]ids.PhotoID, page)
		for j := range pages[i] {
			pages[i][j] = positive[rng.Intn(len(positive))]
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proofs, err := l.StatusBatch(pages[i%len(pages)])
		if err != nil {
			b.Fatal(err)
		}
		benchProofs = proofs
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*page), "ns/id")
}
