package proxy

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"math/rand"
	"slices"
	"testing"

	"irs/internal/bloom"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/tsa"
)

// Validators chain the way tiers do: each holds a bloom.Window per
// ledger, serves it with FilterSync and pulls it with Pull, so
// ledger → validator → validator → validator is the regional → edge →
// browser shape of §4.4 with one holder type.

// upstream is v's FilterSync for one ledger, as a sync source.
func upstream(v *Validator, lid ids.LedgerID) bloom.SyncFunc {
	return func(from uint64, baseHash []byte) ([]byte, uint64, error) {
		return v.FilterSync(lid, from, baseHash)
	}
}

// newFilterLedger opens an in-memory ledger closed at the test's end.
func newFilterLedger(t testing.TB, lid ids.LedgerID) *ledger.Ledger {
	t.Helper()
	l, err := ledger.New(ledger.Config{ID: lid})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// records fabricates n records of ledger lid, well formed but signed by
// no one (their keys and signatures are zero bytes); revoked picks the
// ones revoked at birth.
func records(t testing.TB, lid ids.LedgerID, n int, revoked func(i int) bool) []ledger.Record {
	t.Helper()
	recs := make([]ledger.Record, n)
	for i := range recs {
		id := mustNewID(t, lid)
		hash := sha256.Sum256(id.Rec[:])
		recs[i] = ledger.Record{
			ID:          id,
			PubKey:      make([]byte, ed25519.PublicKeySize),
			HashSig:     make([]byte, ed25519.SignatureSize),
			ContentHash: hash,
			Timestamp:   &tsa.Token{Serial: uint64(i + 1), Digest: hash, Sig: make([]byte, ed25519.SignatureSize)},
			State:       ledger.StateActive,
		}
		if revoked(i) {
			recs[i].State = ledger.StateRevoked
		}
	}
	return recs
}

// publish restores recs into l and builds the next filter epoch.
func publish(t testing.TB, l *ledger.Ledger, recs []ledger.Record) {
	t.Helper()
	if err := l.RestoreRecords(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := l.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
}

// newChain returns n filter-fronted validators with no ledger query.
func newChain(n int) []*Validator {
	chain := make([]*Validator, n)
	for i := range chain {
		chain[i] = NewValidator(Config{UseFilter: true}, nil)
	}
	return chain
}

// pullChain pulls ledger lid down the chain, first hop from l, and
// returns each hop's changed flag and bytes moved.
func pullChain(t testing.TB, l *ledger.Ledger, chain []*Validator) (changed []bool, moved []int) {
	t.Helper()
	src := bloom.SyncFunc(l.FilterSync)
	for i, v := range chain {
		c, n, err := v.Pull(l.ID(), src)
		if err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
		changed, moved = append(changed, c), append(moved, n)
		src = upstream(v, l.ID())
	}
	return changed, moved
}

// TestFilterPropagation drives the filter plane down a chain of three
// validators: origin snapshot → cold pulls, then a second epoch whose
// updates flow as deltas, converging on identical bits at every hop.
func TestFilterPropagation(t *testing.T) {
	l := newFilterLedger(t, 3)
	publish(t, l, records(t, 3, 60, func(i int) bool { return i < 20 }))
	_, origin1, err := l.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	chain := newChain(3)
	regional, bottom := chain[0], chain[2]

	// Cold sync down the chain.
	if changed, _ := pullChain(t, l, chain); !changed[0] || !changed[1] || !changed[2] {
		t.Fatalf("cold pulls: changed %v", changed)
	}
	if heldFilterHash(bottom, 3) != origin1.Hash() {
		t.Fatal("bottom filter differs from origin after cold sync")
	}

	// Steady state: pulls are no-ops.
	if changed, moved := pullChain(t, l, chain); changed[1] || changed[2] || moved[1] != 0 || moved[2] != 0 {
		t.Fatalf("current pulls: changed %v bytes %v", changed, moved)
	}

	// Epoch 2: a few more revocations; the update should travel as a
	// small delta, not a snapshot.
	more := records(t, 3, 5, func(int) bool { return true })
	publish(t, l, more)
	_, origin2, err := l.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	changed, moved := pullChain(t, l, chain)
	if !changed[0] || !changed[1] || !changed[2] {
		t.Fatalf("delta pulls: changed %v", changed)
	}
	if full := len(origin2.Marshal()); moved[0] >= full {
		t.Errorf("incremental pull moved %d bytes, snapshot is %d", moved[0], full)
	}
	if epoch := bottom.Epoch(3); epoch != 2 {
		t.Errorf("bottom epoch %d, want 2", epoch)
	}
	if heldFilterHash(bottom, 3) != origin2.Hash() {
		t.Fatal("bottom filter diverged after delta sync")
	}
	f := bottom.fset.Load().windows[3].Filter()
	for _, r := range more {
		if !f.Test(ledger.FilterKey(r.ID)) {
			t.Fatal("bottom filter missing a propagated revocation")
		}
	}
	// The regional served the next hop one delta (cold snapshot + one
	// up-to-date round + one delta).
	if got, ok := obs.Value(regional.Registry().Snapshot(), "irs_proxy_filter_syncs_total",
		obs.L("kind", "delta")); !ok || got != 1 {
		t.Errorf("regional delta syncs = %v (ok=%v), want 1", got, ok)
	}
}

// TestFilterPullErrors: an empty upstream propagates ErrNoSnapshot, and
// a validator serves the same before the ledger's first epoch.
func TestFilterPullErrors(t *testing.T) {
	l := newFilterLedger(t, 3)
	chain := newChain(2)
	if _, _, err := chain[0].Pull(3, l.FilterSync); err != ledger.ErrNoSnapshot {
		t.Fatalf("got %v, want ErrNoSnapshot", err)
	}
	// And an empty validator serving downstream says the same, whether
	// it tried a pull or never heard of the ledger.
	for _, lid := range []ids.LedgerID{3, 4} {
		if _, _, err := chain[1].Pull(lid, upstream(chain[0], lid)); err != ledger.ErrNoSnapshot {
			t.Fatalf("ledger %d: got %v, want ErrNoSnapshot", lid, err)
		}
	}
	// A ledger without an epoch still might be revoked.
	if !chain[1].mightBeRevoked(mustNewID(t, 3)) {
		t.Error("a ledger without a filter epoch answered definitely-not-revoked")
	}
}

// TestFilterBaseMismatchFallback: a downstream holding the right epoch
// number but the wrong bits (upstream restart) must converge via the
// snapshot fallback instead of applying a corrupting delta.
func TestFilterBaseMismatchFallback(t *testing.T) {
	l := newFilterLedger(t, 3)
	publish(t, l, records(t, 3, 30, func(i int) bool { return i%2 == 0 }))
	if _, err := l.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	chain := newChain(2)
	regional, edge := chain[0], chain[1]
	if _, _, err := regional.Pull(3, l.FilterSync); err != nil {
		t.Fatal(err)
	}

	// An edge that thinks it holds the regional's latest epoch, but with
	// entirely different bits.
	epoch := regional.Epoch(3)
	good := regional.fset.Load().windows[3].Filter()
	bogus, err := bloom.New(good.M(), good.K())
	if err != nil {
		t.Fatal(err)
	}
	bogus.Add(12345)
	edge.SetFilter(3, epoch, bogus)

	changed, _, err := edge.Pull(3, upstream(regional, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("mismatched edge reported itself current")
	}
	if heldFilterHash(edge, 3) != good.Hash() {
		t.Fatal("edge did not converge on the upstream filter")
	}
}

// TestFilterUpstreamRestartRenumbers: a chain holding epochs 1–6 of
// one origin pulls from a restarted origin that has only reached epoch
// 3. Every hop must serve the new origin's bits from then on — not keep
// its old epoch 6 as the newest — and the next pulls must be current
// with nothing moved.
func TestFilterUpstreamRestartRenumbers(t *testing.T) {
	old := newFilterLedger(t, 3)
	chain := newChain(3)
	for i := 0; i < 6; i++ {
		publish(t, old, records(t, 3, 5, func(int) bool { return true }))
		pullChain(t, old, chain)
	}
	if epoch := chain[2].Epoch(3); epoch != 6 {
		t.Fatalf("bottom at epoch %d before the restart, want 6", epoch)
	}

	restarted := newFilterLedger(t, 3)
	revoked := records(t, 3, 40, func(int) bool { return true })
	publish(t, restarted, revoked)
	for i := 0; i < 2; i++ {
		if _, err := restarted.BuildSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	_, want, err := restarted.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if changed, _ := pullChain(t, restarted, chain); !changed[0] || !changed[1] || !changed[2] {
		t.Fatalf("pulls across the restart: changed %v", changed)
	}
	for i, v := range chain {
		if epoch := v.Epoch(3); epoch != 3 || heldFilterHash(v, 3) != want.Hash() {
			t.Fatalf("hop %d serves epoch %d with the restarted origin's bits = %v, want epoch 3 and true",
				i, epoch, heldFilterHash(v, 3) == want.Hash())
		}
		f := v.fset.Load().windows[3].Filter()
		for _, r := range revoked {
			if !f.Test(ledger.FilterKey(r.ID)) {
				t.Fatal("a revocation of the restarted origin is invisible to a hop")
			}
		}
	}
	if changed, moved := pullChain(t, restarted, chain); changed[0] || changed[1] || changed[2] ||
		moved[0]+moved[1]+moved[2] != 0 {
		t.Errorf("repeat pulls: changed %v bytes %v, want current", changed, moved)
	}
}

// TestIdlePullAllocatesNothing: a validator already at its upstream's
// epoch presents the hash it stored at install and gets nothing back —
// no hashing of the held filter, no allocation — whether the upstream
// is the origin ledger or another validator.
func TestIdlePullAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted without the race detector")
	}
	l := newFilterLedger(t, 1)
	publish(t, l, records(t, 1, 64, func(i int) bool { return i%2 == 0 }))
	chain := newChain(2)
	for i, src := range []bloom.SyncFunc{l.FilterSync, upstream(chain[0], 1)} {
		v := chain[i]
		if changed, _, err := v.Pull(1, src); err != nil || !changed {
			t.Fatalf("first pull: changed %v, %v", changed, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if changed, _, err := v.Pull(1, src); err != nil || changed {
				t.Fatalf("idle pull: changed %v, %v", changed, err)
			}
		})
		if allocs != 0 {
			t.Errorf("hop %d: idle pull allocates %v times, want 0", i, allocs)
		}
	}
}

// TestValidatorChainMatchesDirect runs a chain of three validators and
// one validator pulling straight from the ledger through seeded
// revoke/unrevoke epochs, a resize and a restarted origin that
// renumbers its epochs. At every epoch:
//   - every holder's filter bytes equal the origin's;
//   - every validator's FilterSync answer equals the ledger's byte for
//     byte, for a cold sync and for every epoch both still retain (the
//     epochs since the last snapshot the chain had to take, within
//     bloom.RelayHistory); an epoch only the validators retain — one
//     of the origin before its restart — gets an answer that lands on
//     the origin's bits;
//   - a page's decisions at the bottom of the chain equal the direct
//     validator's.
func TestValidatorChainMatchesDirect(t *testing.T) {
	const lid = 5
	rng := rand.New(rand.NewSource(37))
	l := newFilterLedger(t, lid)
	query := func(_ ids.LedgerID, batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
		return l.StatusBatch(batch)
	}
	chain := newChain(2)
	chain = append(chain, NewValidator(Config{UseFilter: true}, query))
	direct := NewValidator(Config{UseFilter: true}, query)
	holders := append([]*Validator{direct}, chain...)

	type seen struct {
		epoch uint64
		hash  [32]byte
		f     *bloom.Filter
	}
	var (
		stored  []ledger.Record
		history []seen // every epoch the holders were given, oldest first
		since   int    // history[since:] is what a snapshot last restarted
	)
	check := func(step string) {
		t.Helper()
		epoch, want, err := l.FilterSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		pullChain(t, l, chain)
		changed, _, err := direct.Pull(lid, l.FilterSync)
		if err != nil || !changed {
			t.Fatalf("%s: direct pull: changed %v, %v", step, changed, err)
		}
		cur := seen{epoch, want.Hash(), want}
		if n := len(history); n > 0 && (history[n-1].f.M() != want.M() || epoch <= history[n-1].epoch) {
			since = n // a resize or a renumbering: the holders took a snapshot
		}
		history = append(history, cur)
		retained := history[max(since, len(history)-bloom.RelayHistory):]

		cold, _, err := l.FilterSync(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range holders {
			if got := v.fset.Load().windows[lid].Filter().Marshal(); !bytes.Equal(got, cold) {
				t.Fatalf("%s: holder %d filter bytes differ from the origin's", step, i)
			}
			if got, latest, err := v.FilterSync(lid, 0, nil); err != nil || latest != epoch || !bytes.Equal(got, cold) {
				t.Fatalf("%s: holder %d cold sync differs (latest %d, %v)", step, i, latest, err)
			}
			for _, s := range history {
				got, _, err := v.FilterSync(lid, s.epoch, s.hash[:])
				if err != nil {
					t.Fatal(err)
				}
				if slices.ContainsFunc(retained, func(r seen) bool { return r.epoch == s.epoch && r.hash == s.hash }) {
					if want, _, _ := l.FilterSync(s.epoch, s.hash[:]); !bytes.Equal(got, want) {
						t.Fatalf("%s: holder %d from epoch %d: %d bytes, ledger sends %d", step, i, s.epoch, len(got), len(want))
					}
					continue
				}
				if len(got) == 0 {
					t.Fatalf("%s: holder %d calls epoch %d current", step, i, s.epoch)
				}
				if next, err := bloom.ApplyUpdate(s.f, got); err != nil || next.Hash() != cur.hash {
					t.Fatalf("%s: holder %d from epoch %d does not land on the origin (%v)", step, i, s.epoch, err)
				}
			}
		}

		page := make([]ids.PhotoID, 0, 64)
		for range 48 {
			page = append(page, stored[rng.Intn(len(stored))].ID)
		}
		page = append(page, mustNewID(t, lid), mustNewID(t, lid))
		got, err := chain[len(chain)-1].ValidateBatch(page)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := direct.ValidateBatch(page)
		if err != nil {
			t.Fatal(err)
		}
		for i := range page {
			if got[i].State != ref[i].State || got[i].Source != ref[i].Source {
				t.Fatalf("%s: %s decided %v/%v at the bottom, %v/%v direct", step, page[i],
					got[i].State, got[i].Source, ref[i].State, ref[i].Source)
			}
		}
	}
	churn := func(n int) {
		upd := make([]ledger.Record, 0, n)
		for _, i := range rng.Perm(len(stored))[:n] {
			r := &stored[i]
			if r.State == ledger.StateActive {
				r.State = ledger.StateRevoked
			} else {
				r.State = ledger.StateActive
			}
			r.OpSeq++
			upd = append(upd, *r)
		}
		publish(t, l, upd)
	}

	stored = records(t, lid, 600, func(i int) bool { return i%3 == 0 })
	publish(t, l, stored)
	check("cold")
	for e := 0; e < 12; e++ {
		churn(1 + rng.Intn(12))
		check("churn")
	}
	// Outgrow the sizing floor: the next epoch is a new m/k.
	grown := records(t, lid, 1500, func(int) bool { return true })
	stored = append(stored, grown...)
	publish(t, l, grown)
	check("resize")
	for e := 0; e < 4; e++ {
		churn(1 + rng.Intn(12))
		check("churn after resize")
	}
	// Restart: a fresh origin under the same id, renumbering from 1,
	// two epochs on before the holders next pull.
	l = newFilterLedger(t, lid)
	stored = records(t, lid, 400, func(i int) bool { return i%2 == 0 })
	publish(t, l, stored)
	churn(8)
	check("restart")
	for e := 0; e < 9; e++ {
		churn(1 + rng.Intn(12))
		check("churn after restart")
	}
}
