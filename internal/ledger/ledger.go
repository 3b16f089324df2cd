// Package ledger implements the IRS ledger: "essentially a timestamped
// database of photos" (paper §3.1) supporting the four basic operations —
// Claiming, Labeling (client-side; the ledger's part is issuing the
// identifier), Revoking, and Validating.
//
// A claim records exactly what §3.2 prescribes: "the ledger records the
// encrypted hash, the public key, an authenticated timestamp (as in [1]),
// and a Boolean 'revoked' flag, and then hands back a unique identifier".
// The "encrypted hash" is realized as an Ed25519 signature by the photo's
// private key over the content hash — the construction that actually
// provides proof of ownership — and the authenticated timestamp is an
// RFC 3161-style token from the ledger's timestamp authority
// (internal/tsa).
//
// Owner privacy (§3.2): nothing in a record links to an identity — only
// the per-photo public key. Revocation and unrevocation are authorized by
// signatures from that key, with a per-record operation sequence number
// for replay protection.
//
// Additional behaviours from the paper:
//
//   - permanent revocation, applied by the appeals process (§3.2), which
//     also blocks future unrevoke;
//   - custodial claims, made by aggregators on behalf of unlabeled
//     uploads (§3.2: "claim it (and watermark it) in a custodial role");
//   - a non-revocable policy mode for ledgers documenting human-rights
//     material (§5, "Enabling Censorship?"): claims are accepted but
//     revocation is refused;
//   - Bloom-filter snapshots of the currently revoked population with
//     numbered epochs and delta updates (§4.4), served to proxies;
//   - durable state via a group-commit write-ahead log plus immutable
//     sorted segments (engine.go).
//
// The store is lock-striped (shard.go): status queries, claims, and
// owner operations on different records never share a mutex, and
// StatusBatch signs a whole page's proofs on the worker pool — the
// serving path the bootstrap design (§4.2–4.4) leans on proxies to
// scale.
package ledger

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"irs/internal/bloom"
	"irs/internal/ids"
	"irs/internal/obs"
	"irs/internal/parallel"
	"irs/internal/tsa"
)

// State is the lifecycle state of a claim.
type State int

const (
	// StateUnknown is returned for identifiers the ledger has never
	// issued.
	StateUnknown State = iota
	// StateActive means claimed and not revoked: viewing and sharing are
	// permitted.
	StateActive
	// StateRevoked means the owner has revoked the photo.
	StateRevoked
	// StatePermanentlyRevoked means the appeals process has revoked the
	// photo with no possibility of unrevocation.
	StatePermanentlyRevoked
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateRevoked:
		return "revoked"
	case StatePermanentlyRevoked:
		return "permanently-revoked"
	default:
		return "unknown"
	}
}

// Defined reports whether s is one of the four states above; a proof
// carrying any other value is refused, never cached or forwarded.
func (s State) Defined() bool { return s >= StateUnknown && s <= StatePermanentlyRevoked }

// Op is a signed owner operation.
type Op byte

const (
	// OpRevoke flips a claim to revoked.
	OpRevoke Op = 1
	// OpUnrevoke flips a claim back to active.
	OpUnrevoke Op = 2
)

// Record is one claim. Fields are exported for persistence; mutate only
// through Ledger methods.
type Record struct {
	ID ids.PhotoID
	// PubKey is the photo's public key; the only identity in the record.
	PubKey ed25519.PublicKey
	// HashSig is the owner's signature over the content hash (the
	// paper's "encrypted hash").
	HashSig []byte
	// ContentHash is the SHA-256 of the photo the claim covers.
	ContentHash [32]byte
	// Timestamp is the authenticated claim-time token.
	Timestamp *tsa.Token
	// State is the current lifecycle state.
	State State
	// OpSeq counts accepted owner operations; signatures must cover the
	// next value, preventing replay of old revoke/unrevoke messages.
	OpSeq uint64
	// Custodial marks claims made by an aggregator on behalf of an
	// unlabeled upload.
	Custodial bool
}

// Config parameterizes a ledger.
type Config struct {
	// ID is the ledger's identifier, embedded in every issued PhotoID.
	ID ids.LedgerID
	// Dir is the persistence directory; empty means in-memory only.
	Dir string
	// NonRevocable refuses revocation (the §5 human-rights ledger
	// policy).
	NonRevocable bool
	// Clock supplies time; nil means time.Now. Simulations inject
	// virtual clocks.
	Clock func() time.Time
	// FilterFPR is the target false-positive rate for revocation filter
	// snapshots; zero means the paper's 2%.
	FilterFPR float64
	// FilterHistory is how many past snapshots to retain for delta
	// service; zero means 25 (a day of hourly snapshots, plus one).
	FilterHistory int
	// Shards is the lock-stripe count for the record store, rounded up
	// to a power of two; zero means 64. Shards = 1 reproduces the old
	// single-lock discipline; filter bytes, segment contents and
	// StateHash are pinned equal at 1 and at 64.
	Shards int
	// Rand, when non-nil, supplies record-identifier entropy in place
	// of crypto/rand. Production ledgers leave it nil (IDs must not
	// reveal claim ordering); experiments inject a seeded stream so
	// regenerated tables are byte-reproducible. Reads are serialized
	// under the identifier-issue lock, so a plain *math/rand.Rand is
	// fine.
	Rand io.Reader
	// Engine selects nothing: a non-empty Dir always means the segment
	// engine. The field survives only because the frozen bench/ module
	// sets it.
	Engine Engine
	// WALSync selects append durability; the zero value, WALSyncBatch,
	// makes every append durable before it returns.
	WALSync WALSyncMode
	// MemtableRecords is the memtable flush threshold; zero means 65536.
	MemtableRecords int
	// CompactAfter is how many live segments trigger a background
	// merge; zero means 8.
	CompactAfter int
}

// Ledger is a single ledger instance. Safe for concurrent use.
type Ledger struct {
	cfg   Config
	clock func() time.Time

	shards    []shard
	shardMask uint64

	// idMu serializes identifier issue so an injected cfg.Rand stream
	// is consumed in claim order (the determinism contract experiments
	// rely on; see shard.go).
	idMu sync.Mutex

	tsa     *tsa.Authority
	signPub ed25519.PublicKey
	signKey ed25519.PrivateKey

	// store is the persistence engine; nil means in-memory only.
	// Mutators log to it while holding the record's shard write lock —
	// the ordering invariant replay relies on (a claim always precedes
	// its ops in the log).
	store *segEngine

	// filters holds the published snapshot epochs; buildMu serializes
	// BuildSnapshot so epochs strictly increase, and guards build, the
	// filter's counting shadow and the builder's reused buffers.
	buildMu sync.Mutex
	build   filterBuild
	filters *bloom.Window
	// epochAt is when the newest epoch was published, in UnixNano of
	// the ledger's clock; written under buildMu, read by PublishIfStale
	// without it.
	epochAt atomic.Int64

	obsReg  *obs.Registry
	metrics metrics
}

// Ledger errors.
var (
	ErrNotFound     = errors.New("ledger: no such claim")
	ErrBadSignature = errors.New("ledger: ownership signature invalid")
	ErrNonRevocable = errors.New("ledger: this ledger does not permit revocation")
	ErrPermanent    = errors.New("ledger: claim is permanently revoked")
	ErrBadOpSeq     = errors.New("ledger: operation sequence advanced concurrently")
)

// New creates a ledger. If cfg.Dir is non-empty, prior state is recovered
// from disk and future mutations are logged durably.
func New(cfg Config) (*Ledger, error) {
	if cfg.ID == 0 {
		return nil, errors.New("ledger: ID must be nonzero")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	fpr := cfg.FilterFPR
	if fpr == 0 {
		fpr = 0.02
	}
	cfg.FilterFPR = fpr
	hist := cfg.FilterHistory
	if hist == 0 {
		hist = 25
	}
	cfg.Shards = normalizeShards(cfg.Shards)
	reg := obs.NewRegistry()
	l := &Ledger{
		cfg:       cfg,
		clock:     clock,
		obsReg:    reg,
		metrics:   newMetrics(reg, cfg.ID),
		shards:    newShards(cfg.Shards),
		shardMask: uint64(cfg.Shards - 1),
		filters:   bloom.NewWindow(hist),
	}
	// A persistent ledger keeps its keys in its directory, and its
	// timestamp authority resumes past every serial the directory holds;
	// an in-memory one starts afresh.
	var keys ledgerKeys
	var lastSerial uint64
	if cfg.Dir != "" {
		if err := refuseLegacyDir(cfg.Dir); err != nil {
			return nil, err
		}
		eng, err := openSegEngine(l, cfg)
		if err != nil {
			l.store = nil
			return nil, err
		}
		keys, lastSerial = eng.keys, eng.maxSerial.Load()
	} else {
		var err error
		if keys, err = newKeys(); err != nil {
			return nil, err
		}
	}
	l.signKey, l.signPub = keys.sign, keys.sign.Public().(ed25519.PublicKey)
	l.tsa = tsa.NewFromKey(keys.tsa, clock, lastSerial)
	return l, nil
}

// Files the JSON-lines engine of earlier versions left behind.
var legacyFiles = []string{"wal.log", "snapshot.json"}

// refuseLegacyDir rejects a directory holding JSON-engine state:
// nothing reads that format any more, and opening the directory as a
// segment store would silently ignore every record in it.
func refuseLegacyDir(dir string) error {
	for _, name := range legacyFiles {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return fmt.Errorf("ledger: %s holds %s, written by the removed JSON engine; refusing to open it as a segment store", dir, name)
		}
	}
	return nil
}

// ID returns the ledger identifier.
func (l *Ledger) ID() ids.LedgerID { return l.cfg.ID }

// SigningKey returns the public key that verifies status proofs.
func (l *Ledger) SigningKey() ed25519.PublicKey { return l.signPub }

// TimestampKey returns the public key that verifies claim timestamps.
func (l *Ledger) TimestampKey() ed25519.PublicKey { return l.tsa.PublicKey() }

// claimMsg is the canonical byte string an owner signs to claim.
func claimMsg(contentHash [32]byte) []byte {
	msg := make([]byte, 0, 14+32)
	msg = append(msg, "irs-claim-v1:"...)
	msg = append(msg, contentHash[:]...)
	return msg
}

// opMsg is the canonical byte string an owner signs for a state change.
func opMsg(id ids.PhotoID, op Op, seq uint64) []byte {
	msg := make([]byte, 0, 11+16+1+8)
	msg = append(msg, "irs-op-v1:"...)
	b := id.Bytes()
	msg = append(msg, b[:]...)
	msg = append(msg, byte(op))
	for i := 7; i >= 0; i-- {
		msg = append(msg, byte(seq>>(8*i)))
	}
	return msg
}

// ClaimMsg exposes the canonical claim message for owner-side signing.
func ClaimMsg(contentHash [32]byte) []byte { return claimMsg(contentHash) }

// OpMsg exposes the canonical operation message for owner-side signing.
func OpMsg(id ids.PhotoID, op Op, seq uint64) []byte { return opMsg(id, op, seq) }

// Receipt is returned from a successful claim. The owner stores it with
// the private key; the timestamp token is the evidence the appeals
// process later relies on.
type Receipt struct {
	ID        ids.PhotoID
	Timestamp *tsa.Token
	// Proof is the claim's first status proof, issued with the claim:
	// the bytes Status(ID) returns within the same second. An aggregator
	// hosting a custodial claim needs it at once, and this saves it the
	// round trip. Nil in a receipt from a ledger that predates the field.
	Proof *StatusProof
}

// Claim registers a photo: pub is the per-photo public key and hashSig
// the owner's signature over ClaimMsg(contentHash). The claim starts in
// StateActive unless revokedAtBirth is set — supporting the §4.4 usage
// pattern where "many photos will be automatically registered and
// revoked (allowing an owner to manually unrevoke ones they want to
// share)".
func (l *Ledger) Claim(contentHash [32]byte, pub ed25519.PublicKey, hashSig []byte, revokedAtBirth bool) (Receipt, error) {
	return l.claim(contentHash, pub, hashSig, revokedAtBirth, false)
}

// CustodialClaim registers a photo on behalf of an uploader that
// presented no label (§3.2): the aggregator holds the key pair and may
// later revoke if an appeal succeeds.
func (l *Ledger) CustodialClaim(contentHash [32]byte, pub ed25519.PublicKey, hashSig []byte) (Receipt, error) {
	return l.claim(contentHash, pub, hashSig, false, true)
}

// newID issues a record identifier from cfg.Rand if injected, else
// crypto/rand. idMu serializes reads so an injected stream is consumed
// in claim order.
func (l *Ledger) newID() (ids.PhotoID, error) {
	l.idMu.Lock()
	defer l.idMu.Unlock()
	if l.cfg.Rand != nil {
		return ids.NewFrom(l.cfg.ID, l.cfg.Rand)
	}
	return ids.New(l.cfg.ID)
}

func (l *Ledger) claim(contentHash [32]byte, pub ed25519.PublicKey, hashSig []byte, revokedAtBirth, custodial bool) (Receipt, error) {
	if len(pub) != ed25519.PublicKeySize {
		return Receipt{}, fmt.Errorf("%w: bad public key size %d", ErrBadSignature, len(pub))
	}
	if !ed25519.Verify(pub, claimMsg(contentHash), hashSig) {
		return Receipt{}, ErrBadSignature
	}
	tok := l.tsa.Stamp(contentHash)
	rec := &Record{
		PubKey:      append(ed25519.PublicKey(nil), pub...),
		HashSig:     append([]byte(nil), hashSig...),
		ContentHash: contentHash,
		Timestamp:   tok,
		State:       StateActive,
		Custodial:   custodial,
	}
	if revokedAtBirth {
		rec.State = StateRevoked
	}
	id, err := l.newID()
	if err != nil {
		return Receipt{}, err
	}
	rec.ID = id
	st := rec.State
	sh := l.shardFor(id)
	if err := l.insertClaim(sh, rec); err != nil {
		return Receipt{}, err
	}
	// The first proof is signed outside the shard lock, with the state
	// the claim was born in: nobody holds the identifier yet, so no
	// operation can have changed it. Going through the memo makes a
	// Status of this second return the same bytes.
	proof := &StatusProof{ID: id, State: st, IssuedAt: l.proofTime()}
	l.fillSig(sh, proof)
	return Receipt{ID: id, Timestamp: tok, Proof: proof}, nil
}

// insertClaim publishes a new record in its shard and logs it.
func (l *Ledger) insertClaim(sh *shard, rec *Record) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.records[rec.ID] = rec
	sh.setRevoked(rec.ID, rec.State)
	l.metrics.claims.Inc()
	if l.store != nil {
		// Logged under the shard lock so a concurrent op on this claim
		// cannot reach the WAL before the claim entry it depends on.
		if err := l.store.logClaim(rec); err != nil {
			delete(sh.records, rec.ID)
			sh.setRevoked(rec.ID, StateActive)
			return err
		}
	}
	return nil
}

// Apply executes a signed owner operation: sig must cover
// OpMsg(id, op, record.OpSeq+1) under the claim's public key.
//
// A signature that does not verify — forged, or replayed over an older
// sequence number — is ErrBadSignature after exactly one Ed25519
// verify. Verification runs outside any lock: the record's public key
// and sequence number are read under a read lock, checked, and then the
// write lock is retaken with the sequence number re-validated before
// mutating. A concurrent operation that advanced the sequence in the
// gap surfaces as ErrBadOpSeq.
//
// An operation on a sealed claim leaves an overlay in the memtable, not
// the record: the key and sequence number are read from the segment
// frame in place.
func (l *Ledger) Apply(id ids.PhotoID, op Op, sig []byte) error {
	if op != OpRevoke && op != OpUnrevoke {
		return fmt.Errorf("ledger: unknown op %d", op)
	}
	if op == OpRevoke && l.cfg.NonRevocable {
		return ErrNonRevocable
	}
	sh := l.shardFor(id)

	pub, seq, state, pinned, err := l.opView(sh, id)
	if err != nil {
		return err
	}
	next := seq + 1
	verified := state != StatePermanentlyRevoked && ed25519.Verify(pub, opMsg(id, op, next), sig)
	pinned.unpin() // pub is not read again
	if state == StatePermanentlyRevoked {
		return ErrPermanent
	}
	if !verified {
		return ErrBadSignature
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()
	// A memtable flush may have sealed and evicted the version read
	// above, or a concurrent operation replaced it; the newest version,
	// read again under the write lock, is authoritative.
	prev, cur, held, err := l.newest(sh, id)
	if err != nil {
		return err
	}
	if prev == StatePermanentlyRevoked {
		return ErrPermanent
	}
	if cur != seq {
		// A concurrent operation consumed this sequence number while we
		// verified; the signature no longer covers OpSeq+1.
		return ErrBadOpSeq
	}
	st := StateActive
	if op == OpRevoke {
		st = StateRevoked
	}
	sh.setVersion(id, st, next)
	l.metrics.ops.Inc()
	if l.store != nil {
		if err := l.store.logOp(id, op, next); err != nil {
			sh.restoreVersion(id, held, prev, seq)
			return err
		}
	}
	return nil
}

// opView reads what Apply verifies against: the claim's public key and
// the state and sequence number of its newest version. A record the
// memtable holds answers alone; otherwise the key comes from the newest
// segment frame, read in place, and the state and sequence number from
// the overlay if there is one, else from the frame. The returned pub
// aliases the record, which is immutable, or the mapping of a segment in
// pinned, which the caller unpins once it is done with pub.
func (l *Ledger) opView(sh *shard, id ids.PhotoID) (pub ed25519.PublicKey, seq uint64, state State, pinned *segList, err error) {
	sh.mu.RLock()
	rec, ok := sh.records[id]
	if ok {
		pub, seq, state = rec.PubKey, rec.OpSeq, rec.State
	}
	ov, overlaid := sh.overlays[id]
	sh.mu.RUnlock()
	if ok {
		return pub, seq, state, nil, nil
	}
	if l.store == nil {
		return nil, 0, 0, nil, ErrNotFound
	}
	pinned = l.store.pin()
	state, seq, pub, ok, err = sealedHead(pinned, id)
	if err == nil && !ok {
		err = ErrNotFound
	}
	if err != nil {
		pinned.unpin()
		return nil, 0, 0, nil, err
	}
	if overlaid {
		state, seq = ov.state, ov.seq
	}
	return pub, seq, state, pinned, nil
}

// newest returns the state and sequence number of id's newest version:
// the memtable's (held), else the newest segment frame's. The caller
// holds sh.mu for writing, so no flush can evict between the two reads.
func (l *Ledger) newest(sh *shard, id ids.PhotoID) (st State, seq uint64, held bool, err error) {
	if st, seq, ok := sh.version(id); ok {
		return st, seq, true, nil
	}
	if l.store != nil {
		sl := l.store.pin()
		st, seq, _, ok, err := sealedHead(sl, id)
		sl.unpin()
		if ok || err != nil {
			return st, seq, false, err
		}
	}
	return StateUnknown, 0, false, ErrNotFound
}

// PermanentRevoke marks a claim permanently revoked. Only the appeals
// process calls this; it requires no owner signature because it is the
// adjudicated override of a hostile claim (§3.2: "they then mark it as
// permanently revoked"). Non-revocable ledgers refuse: §5's human-rights
// ledgers "would deny the appeals process if it appeared the appeal was
// done under duress" — this implementation denies it categorically.
func (l *Ledger) PermanentRevoke(id ids.PhotoID) error {
	if l.cfg.NonRevocable {
		return ErrNonRevocable
	}
	sh := l.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	prev, seq, held, err := l.newest(sh, id)
	if err != nil {
		return err
	}
	sh.setVersion(id, StatePermanentlyRevoked, seq)
	if l.store != nil {
		if err := l.store.logPermanent(id); err != nil {
			sh.restoreVersion(id, held, prev, seq)
			return err
		}
	}
	return nil
}

// Status returns the claim state and a signed freshness proof. This is
// the validation operation — the ledger-side half of "checking that a
// photo has not been revoked" (§3.1). Unknown identifiers yield a signed
// StateUnknown proof, so negative answers are also attributable.
func (l *Ledger) Status(id ids.PhotoID) (*StatusProof, error) {
	sh := l.shardFor(id)
	sh.mu.RLock()
	st, ok := sh.state(id)
	sh.mu.RUnlock()
	if !ok && l.store != nil {
		var err error
		if st, err = l.store.lookupState(id); err != nil {
			return nil, err
		}
	}
	l.metrics.queries.Inc()
	p := &StatusProof{ID: id, State: st, IssuedAt: l.proofTime()}
	if l.fillSig(sh, p) {
		l.metrics.memoHits.Inc()
	} else {
		l.metrics.signs.Inc()
	}
	return p, nil
}

// fillSig completes p — ID, State and IssuedAt set by the caller —
// with its signature: from the memo of sh, the shard of p.ID, when this
// second has signed it already, else freshly signed and left there.
func (l *Ledger) fillSig(sh *shard, p *StatusProof) (memoized bool) {
	sh.memo.mu.Lock()
	memoized = sh.memo.get(p)
	sh.memo.mu.Unlock()
	if !memoized {
		l.sign(sh, p)
	}
	return memoized
}

// StatusBatch answers one validation query per identifier, in input
// order — the ledger half of the batch RPC that lets a page load
// resolve dozens of photos in one round trip. It is StatusBatchInto
// with a scratch of its own: the proofs share one IssuedAt instant and
// one backing array, which is the caller's — nothing in the ledger
// keeps a reference to it.
func (l *Ledger) StatusBatch(batch []ids.PhotoID) ([]*StatusProof, error) {
	return l.StatusBatchInto(new(BatchScratch), batch)
}

// BatchScratch is the working memory of a status batch: the shard
// walk's index slab and the proof array. The zero value is ready; it
// grows to the largest batch it has answered and is then reused, so a
// server that keeps one per request in a pool answers a page without
// allocating. It serves one batch at a time.
type BatchScratch struct {
	ints   []int
	proofs []*StatusProof // over one slab, as NewProofBatch lays it out
}

// StatusBatchInto is StatusBatch answered into sc: the proofs it
// returns sit in sc and are valid until sc is used again. Each touched
// shard is visited once: states are read under its lock from the
// memtable and the resident revoked set (what both miss — active or
// unknown ids — from the segments, outside it), then the shard's proof
// memo is asked for signatures this second has already produced. Only
// what it lacks is signed, on the worker pool.
func (l *Ledger) StatusBatchInto(sc *BatchScratch, batch []ids.PhotoID) ([]*StatusProof, error) {
	n := len(batch)
	if n == 0 {
		return nil, nil
	}
	// One slab of indices: per shard a count, then the running end of
	// its group; the inputs' shards; the inputs grouped by shard so each
	// is locked once; what a shard cannot answer; the memo's misses.
	ns := len(l.shards)
	if cap(sc.ints) < ns+4*n {
		sc.ints = make([]int, ns+4*n)
	}
	if cap(sc.proofs) < n {
		sc.proofs = NewProofBatch(n)
	}
	ints, proofs := sc.ints[:ns+4*n], sc.proofs[:n]
	ends, shardOf, grouped := ints[:ns], ints[ns:ns+n], ints[ns+n:ns+2*n]
	misses, unsigned := ints[ns+2*n:ns+2*n:ns+3*n], ints[ns+3*n:ns+3*n]
	clear(ends)
	for i, id := range batch {
		s := int(id.Hash64() & l.shardMask)
		shardOf[i] = s
		ends[s]++
	}
	sum := 0
	for s, c := range ends {
		ends[s] = sum
		sum += c
	}
	for i, s := range shardOf {
		grouped[ends[s]] = i
		ends[s]++
	}
	at := l.proofTime()
	for i, id := range batch {
		*proofs[i] = StatusProof{ID: id, State: StateUnknown, IssuedAt: at}
	}
	start := 0
	for s := range l.shards {
		mine := grouped[start:ends[s]]
		start = ends[s]
		if len(mine) == 0 {
			continue
		}
		sh := &l.shards[s]
		misses = misses[:0]
		sh.mu.RLock()
		for _, i := range mine {
			if st, ok := sh.state(batch[i]); ok {
				proofs[i].State = st
			} else if l.store != nil {
				misses = append(misses, i)
			}
		}
		sh.mu.RUnlock()
		// The rest fall through to the storage engine (segment point
		// lookups); unknown identifiers stay StateUnknown. The segment
		// list is loaded after the shard read, so it holds whatever a
		// flush evicted from the memtable before that read.
		if len(misses) > 0 {
			segs := l.store.pin()
			for _, i := range misses {
				st, err := sealedState(segs, batch[i])
				if err != nil {
					segs.unpin()
					return nil, err
				}
				proofs[i].State = st
			}
			segs.unpin()
		}
		sh.memo.mu.Lock()
		for _, i := range mine {
			if !sh.memo.get(proofs[i]) {
				unsigned = append(unsigned, i)
			}
		}
		sh.memo.mu.Unlock()
	}
	l.metrics.queries.Add(uint64(n))
	l.metrics.memoHits.Add(uint64(n - len(unsigned)))
	l.metrics.signs.Add(uint64(len(unsigned)))
	if len(unsigned) > 0 {
		parallel.Do(len(unsigned), func(k int) {
			i := unsigned[k]
			l.sign(&l.shards[shardOf[i]], proofs[i])
		})
	}
	return proofs, nil
}

// Record returns a copy of the stored claim record; the appeals process
// uses it to fetch the contested claim's public key and timestamp.
func (l *Ledger) Record(id ids.PhotoID) (Record, error) {
	sh := l.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if rec, ok := sh.records[id]; ok {
		cp := *rec
		cp.PubKey = append(ed25519.PublicKey(nil), rec.PubKey...)
		cp.HashSig = append([]byte(nil), rec.HashSig...)
		return cp, nil
	}
	if l.store == nil {
		return Record{}, ErrNotFound
	}
	// Decoded under the read lock, so a flush cannot evict the overlay
	// between reading it and the segment it lies over.
	srec, found, err := l.store.lookup(id)
	if err != nil {
		return Record{}, err
	}
	if !found {
		return Record{}, ErrNotFound
	}
	if ov, ok := sh.overlays[id]; ok {
		srec.State, srec.OpSeq = ov.state, ov.seq
	}
	return *srec, nil // already a private copy
}

// Count returns total claims and currently revoked claims. The revoked
// sets are always fully resident; a persistent ledger's claim total
// comes from the engine's exact counter, because the shard maps hold
// only the memtable.
func (l *Ledger) Count() (claims, revoked int) {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.RLock()
		claims += len(sh.records)
		revoked += len(sh.revoked)
		sh.mu.RUnlock()
	}
	if l.store != nil {
		claims = int(l.store.claimCount.Load())
	}
	return claims, revoked
}

// Close releases persistence resources.
func (l *Ledger) Close() error {
	if l.store != nil {
		return l.store.close()
	}
	return nil
}
