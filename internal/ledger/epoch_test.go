package ledger

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"irs/internal/bloom"
	"irs/internal/ids"
)

// epochRig drives a ledger through seeded histories of revocation
// changes and holds every epoch it builds to the full-rebuild oracle:
// the filter the pre-incremental BuildSnapshot built from the resident
// revoked set, served by bloom.Update.
type epochRig struct {
	t       *testing.T
	cfg     Config
	l       *Ledger
	rng     *rand.Rand
	owner   *owner
	claims  []ids.PhotoID          // owner-signed claims, for Apply
	opSeq   map[ids.PhotoID]uint64 // their next sequence number - 1
	stored  []Record               // restored records, newest version
	batch   int64                  // restore batches so far, the next seed
	oracles map[uint64]*bloom.Filter
	prev    *bloom.Filter // the oracle of the newest epoch
	resized int           // oracle parameter changes seen
}

func newEpochRig(t *testing.T, cfg Config, seed int64) *epochRig {
	r := &epochRig{t: t, cfg: cfg, rng: rand.New(rand.NewSource(seed)), owner: newOwner(t),
		opSeq: make(map[ids.PhotoID]uint64)}
	r.open()
	t.Cleanup(func() { r.l.Close() })
	return r
}

// open (re)opens the ledger; its epochs start again from 1.
func (r *epochRig) open() {
	l, err := New(r.cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	r.l, r.oracles, r.prev = l, make(map[uint64]*bloom.Filter), nil
}

// restore restores n new records, the first revoked of them revoked.
func (r *epochRig) restore(n, revoked int) {
	r.batch++
	recs := makeRecords(r.t, r.cfg.ID, n, 1000+r.batch)
	for i := range recs {
		recs[i].State = StateActive
		if i < revoked {
			recs[i].State = StateRevoked
		}
	}
	if err := r.l.RestoreRecords(recs); err != nil {
		r.t.Fatal(err)
	}
	r.stored = append(r.stored, recs...)
}

// churn re-restores n distinct stored records with their states
// toggled, as a replica ingesting newer versions does.
func (r *epochRig) churn(n int) {
	var upd []Record
	for _, i := range r.rng.Perm(len(r.stored))[:min(n, len(r.stored))] {
		rec := &r.stored[i]
		if rec.State == StateActive {
			rec.State = StateRevoked
		} else {
			rec.State = StateActive
		}
		rec.OpSeq++
		upd = append(upd, *rec)
	}
	if err := r.l.RestoreRecords(upd); err != nil {
		r.t.Fatal(err)
	}
}

// step applies one seeded change: a claim (revoked at birth or not), a
// revoke or unrevoke, a permanent revocation, or a churned restore.
func (r *epochRig) step() {
	switch op := r.rng.Intn(10); {
	case op < 2 || len(r.claims) == 0:
		id := r.owner.claim(r.t, r.l, hashOf(fmt.Sprint("epoch-claim-", r.rng.Int63())), r.rng.Intn(3) == 0).ID
		r.claims = append(r.claims, id)
	case op < 7:
		id := r.claims[r.rng.Intn(len(r.claims))]
		kind := OpRevoke
		if r.rng.Intn(2) == 0 {
			kind = OpUnrevoke
		}
		switch err := r.l.Apply(id, kind, r.owner.signOp(id, kind, r.opSeq[id]+1)); {
		case err == nil:
			r.opSeq[id]++
		case !errors.Is(err, ErrPermanent):
			r.t.Fatal(err)
		}
	case op < 8:
		id := r.claims[r.rng.Intn(len(r.claims))]
		if len(r.stored) > 0 && r.rng.Intn(2) == 0 {
			id = r.stored[r.rng.Intn(len(r.stored))].ID
		}
		if err := r.l.PermanentRevoke(id); err != nil {
			r.t.Fatal(err)
		}
	default:
		r.churn(1 + r.rng.Intn(8))
	}
}

// oracle is the pre-incremental full build over the resident revoked
// set, sized with the same hysteresis against the previous epoch.
func (r *epochRig) oracle() *bloom.Filter {
	var keys []uint64
	for i := range r.l.shards {
		for id := range r.l.shards[i].revoked {
			keys = append(keys, FilterKey(id))
		}
	}
	n := uint64(max(len(keys), 1024))
	needM := uint64(math.Ceil(-float64(n) * math.Log(r.l.cfg.FilterFPR) / (math.Ln2 * math.Ln2)))
	var f *bloom.Filter
	var err error
	if r.prev != nil && r.prev.M() >= needM {
		f, err = bloom.New(r.prev.M(), r.prev.K())
	} else {
		f, err = bloom.NewWithEstimate(n*3/2, r.l.cfg.FilterFPR)
	}
	if err != nil {
		r.t.Fatal(err)
	}
	for _, k := range keys {
		f.Add(k)
	}
	return f
}

// build publishes an epoch and checks it: the filter bytes, a cold
// sync, and the FilterSync answer for every epoch still retained and
// the two before them equal the oracle's.
func (r *epochRig) build() {
	t := r.t
	t.Helper()
	seq, err := r.l.BuildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := r.oracle()
	if r.prev != nil && r.prev.M() != want.M() {
		r.resized++
	}
	r.oracles[seq], r.prev = want, want
	snap := want.Marshal()
	if _, f, _ := r.l.filters.Latest(); !bytes.Equal(f.Marshal(), snap) {
		t.Fatalf("epoch %d: filter bytes differ from the full rebuild", seq)
	}
	if got, latest, err := r.l.FilterSync(0, nil); err != nil || latest != seq || !bytes.Equal(got, snap) {
		t.Fatalf("epoch %d: cold sync is not the snapshot (latest %d, %v)", seq, latest, err)
	}
	hist := uint64(r.l.cfg.FilterHistory)
	for from := seq; from >= 1 && from+hist+2 > seq; from-- {
		base := r.oracles[from]
		h := base.Hash()
		got, latest, err := r.l.FilterSync(from, h[:])
		var exp []byte
		switch {
		case from == seq:
		case seq-from < hist:
			exp, _ = bloom.Update(base, want)
		default:
			exp = snap
		}
		if err != nil || latest != seq || !bytes.Equal(got, exp) {
			t.Fatalf("epoch %d: sync from %d gave %d bytes (snapshot %v), the oracle %d (snapshot %v); latest %d, %v",
				seq, from, len(got), bloom.IsSnapshot(got), len(exp), bloom.IsSnapshot(exp), latest, err)
		}
	}
}

func (r *epochRig) run(steps int) {
	for i := 0; i < steps; i++ {
		r.step()
		if r.rng.Intn(3) == 0 {
			r.build()
		}
	}
	r.build()
}

// TestIncrementalEpochsMatchFullBuild: at shard counts 1, 4 and 16,
// seeded histories of claims (revoked at birth or not), revokes,
// unrevokes, permanent revocations, replica restores, ops the WAL
// refuses and a reopen publish epochs whose filter bytes and FilterSync
// answers equal the full rebuild's. The history crosses a resize that
// the change log detects and a restore that overflows the log.
func TestIncrementalEpochsMatchFullBuild(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			r := newEpochRig(t, Config{ID: 1, Shards: shards, Dir: t.TempDir(), FilterHistory: 6}, int64(shards))
			r.restore(1500, 1300)
			r.build()
			r.run(60)
			// 400 more revoked outgrow the 1536-key sizing: the log
			// drains, and the epoch is rebuilt at the new size.
			r.restore(400, 400)
			r.build()
			r.run(20)
			// A bulk restore past the change log's capacity, then as
			// many flips again at the size it grew to.
			r.restore(changeLogMax+200, changeLogMax+100)
			r.build()
			r.churn(changeLogMax + 100)
			r.build()
			r.run(40)
			if r.resized == 0 {
				t.Fatal("the history never resized the filter")
			}

			// Ops the WAL refuses roll back; their logged flips cancel.
			w := r.l.store.wal
			w.mu.Lock()
			w.f.Close()
			w.mu.Unlock()
			for i := 0; i < 6; i++ {
				id := r.claims[i%len(r.claims)]
				if r.l.Apply(id, OpRevoke, r.owner.signOp(id, OpRevoke, r.opSeq[id]+1)) == nil ||
					r.l.Apply(id, OpUnrevoke, r.owner.signOp(id, OpUnrevoke, r.opSeq[id]+1)) == nil ||
					r.l.PermanentRevoke(id) == nil {
					t.Fatal("an op succeeded with the WAL closed")
				}
				h := hashOf(fmt.Sprint("epoch-refused-", i))
				if _, err := r.l.Claim(h, r.owner.pub, ed25519.Sign(r.owner.priv, ClaimMsg(h)), true); err == nil {
					t.Fatal("a claim succeeded with the WAL closed")
				}
			}
			r.build()

			r.l.Close()
			r.open()
			r.build()
			r.run(40)
		})
	}
}

// TestIncrementalEpochsSaturationFallback: a filter of one word and
// one hash function gives every counter hundreds of keys' worth of
// load, so counters saturate — an increment past 15 sends its epoch to
// the rebuild, and a rebuild that saturated keeps later epochs there
// until the population shrinks enough for the shadow to fit again.
// Every epoch still equals the oracle. The rig's claims draw their ids
// from a seeded stream, so whether and when the filter saturates and
// recovers is a function of the seeds, the same on every run.
func TestIncrementalEpochsSaturationFallback(t *testing.T) {
	r := newEpochRig(t, Config{ID: 1, Shards: 4, FilterFPR: 0.99, FilterHistory: 4,
		Rand: rand.New(rand.NewSource(7))}, 7)
	r.restore(1200, 150)
	r.build()
	saturated, recovered := false, false
	for round := 0; round < 12; round++ {
		r.churn(40 + r.rng.Intn(400))
		r.build()
		r.run(10)
		if r.l.build.saturated {
			saturated = true
		} else if saturated {
			recovered = true
		}
	}
	if r.prev.M() != 64 || !saturated || !recovered {
		t.Fatalf("m %d, saturated %v, recovered %v: want a one-word filter that saturated and recovered",
			r.prev.M(), saturated, recovered)
	}
}

// BenchmarkBuildSnapshotScale is one filter epoch at 10⁶ revoked ids
// with 16 changes (8 revokes, 8 unrevokes) per epoch, the ledger
// keeping its default 25-epoch history: the build, the answer to a
// holder one epoch behind, and one tier's pull and install. B/op covers
// those three; idle-pull-us is a pull with nothing new. The revoked set
// is seeded straight into the shards, which is all BuildSnapshot reads.
func BenchmarkBuildSnapshotScale(b *testing.B) {
	const revoked, perEpoch = 1_000_000, 16
	l, err := New(Config{ID: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(1))
	newID := func() ids.PhotoID {
		id, err := ids.NewFrom(1, rng)
		if err != nil {
			b.Fatal(err)
		}
		return id
	}
	set := func(id ids.PhotoID, st State) {
		sh := l.shardFor(id)
		sh.mu.Lock()
		sh.setRevoked(id, st)
		sh.mu.Unlock()
	}
	pool := make([]ids.PhotoID, revoked)
	for i := range pool {
		pool[i] = newID()
		set(pool[i], StateRevoked)
	}
	tier := bloom.NewWindow(8)
	// epoch revokes perEpoch/2 fresh ids and unrevokes as many revoked
	// ones, then builds.
	epoch := func() time.Duration {
		for j := 0; j < perEpoch/2; j++ {
			k := rng.Intn(len(pool))
			set(pool[k], StateActive)
			pool[k] = newID()
			set(pool[k], StateRevoked)
		}
		start := time.Now()
		if _, err := l.BuildSnapshot(); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	pull := func() {
		if _, _, err := tier.Pull(l.FilterSync); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ { // fill the history
		epoch()
		pull()
	}
	var build, serve, install time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		held, f, _ := tier.Latest()
		h := f.Hash()
		b.StartTimer()
		build += epoch()
		start := time.Now()
		if p, _, err := l.FilterSync(held, h[:]); err != nil || bloom.IsSnapshot(p) {
			b.Fatalf("one-behind sync: snapshot %v, %v", bloom.IsSnapshot(p), err)
		}
		serve += time.Since(start)
		start = time.Now()
		pull()
		install += time.Since(start)
	}
	b.StopTimer()
	const idleRounds = 1000
	start := time.Now()
	for i := 0; i < idleRounds; i++ {
		pull() // already at the newest epoch: nothing moves
	}
	idle := time.Since(start)
	n := float64(b.N)
	b.ReportMetric(float64(idle.Nanoseconds())/1e3/idleRounds, "idle-pull-us")
	b.ReportMetric(float64(build.Nanoseconds())/1e3/n, "build-us")
	b.ReportMetric(float64(serve.Nanoseconds())/1e3/n, "serve-us")
	b.ReportMetric(float64(install.Nanoseconds())/1e3/n, "pull-us")
	b.ReportMetric(float64(l.filters.RetainedBytes()), "window-B")
}
