package ledger

import (
	"sync"

	"irs/internal/ids"
)

// Lock striping: the record and revoked maps are split into
// power-of-two shards keyed by a mix of the PhotoID, so concurrent
// status queries, claims, and owner operations on different records
// proceed without sharing a mutex (a single global lock serialized
// every page view). Config.Shards = 1 reproduces the old single-lock
// discipline; the shard-count invariance tests compare against it.
//
// Determinism is preserved by construction:
//
//   - identifier issue order: an injected Config.Rand stream is read
//     under idMu in claim order, exactly as the old global lock
//     serialized it (experiments claim serially, so the stream is a
//     pure function of the seed);
//   - filter snapshots: Bloom bits are an order-insensitive OR, and a
//     filter bit's shadow counter a sum, so draining shards in fixed
//     index order yields byte-identical filters to the single-map
//     build;
//   - WAL: an operation on a record is appended while holding that
//     record's shard write lock, so per-record entry order (claim
//     before its ops, ops in sequence order) is preserved, which is
//     the only ordering replay relies on;
//   - segments: a flush sorts its memtable cut by identifier bytes, so
//     sealed state (and StateHash) is independent of shard count and
//     map iteration order.

// defaultShards is the shard count when Config.Shards is zero. 64 is
// comfortably above any plausible core count, keeps per-shard maps
// large enough to stay cache-friendly, and makes the mask arithmetic
// free.
const defaultShards = 64

// shard is one stripe of the record store.
type shard struct {
	mu sync.RWMutex
	// The memtable is records and overlays; an id is in at most one.
	// records holds the claims made or restored since the last flush,
	// whole. overlays holds, for a sealed claim an owner operation or
	// permanent revocation has changed since, only its new state and
	// sequence number: the fields no operation touches stay in the
	// segment, which readers, StateHash and the flush join it with.
	records  map[ids.PhotoID]*Record
	overlays map[ids.PhotoID]overlay
	// revoked is the resident revoked set, whole whatever the memtable
	// holds: an id is present while its newest version is revoked, and
	// its value is true when that revocation is permanent. Filter
	// snapshots are built from it, and it answers a status query for a
	// revoked id the memtable misses (see state).
	revoked map[ids.PhotoID]bool

	// changes logs, in order, the filter keys whose membership of
	// revoked flipped since a filter epoch last drained this shard. Its
	// storage is reused from epoch to epoch. A shard whose log would
	// pass changeCap stops logging and sets changesLost, which sends the
	// next epoch through a full rebuild (filter.go).
	changes     []filterChange
	changeCap   int
	changesLost bool

	// memo is this stripe of the per-second proof-signature memo
	// (proof.go). It has its own mutex: a query writes to it while
	// holding no record lock.
	memo proofMemo
}

// overlay is the memtable's version of a sealed claim: its newest state
// and sequence number. It holds no pointer, so the collector never scans
// an overlay map's entries.
type overlay struct {
	state State
	seq   uint64
}

// memtableLen is the number of ids the memtable holds. The caller holds
// sh.mu (or owns the shard, in recovery).
func (sh *shard) memtableLen() int { return len(sh.records) + len(sh.overlays) }

// version returns the state and sequence number of id's memtable
// version, a record or an overlay; false means only the segments know
// id. The caller holds sh.mu.
func (sh *shard) version(id ids.PhotoID) (st State, seq uint64, ok bool) {
	if rec, ok := sh.records[id]; ok {
		return rec.State, rec.OpSeq, true
	}
	ov, ok := sh.overlays[id]
	return ov.state, ov.seq, ok
}

// setVersion makes st and seq id's newest version: in its record when
// the memtable holds one, else as an overlay on its sealed claim. It
// keeps the resident revoked set in step. The caller holds sh.mu for
// writing (or owns the shard, in recovery).
func (sh *shard) setVersion(id ids.PhotoID, st State, seq uint64) {
	if rec, ok := sh.records[id]; ok {
		rec.State, rec.OpSeq = st, seq
	} else {
		sh.overlays[id] = overlay{st, seq}
	}
	sh.setRevoked(id, st)
}

// restoreVersion undoes a setVersion whose WAL append failed: it puts
// back st and seq, id's version before, which was the memtable's when
// held, else the segments' (and the overlay it made is dropped).
func (sh *shard) restoreVersion(id ids.PhotoID, held bool, st State, seq uint64) {
	if held {
		sh.setVersion(id, st, seq)
		return
	}
	delete(sh.overlays, id)
	sh.setRevoked(id, st)
}

// state answers a status query from what the shard holds: the memtable,
// then the resident revoked set. False means only the segments know the
// id — it is active or unknown. The caller holds sh.mu.
func (sh *shard) state(id ids.PhotoID) (State, bool) {
	if st, _, ok := sh.version(id); ok {
		return st, true
	}
	perm, ok := sh.revoked[id]
	switch {
	case !ok:
		return StateUnknown, false
	case perm:
		return StatePermanentlyRevoked, true
	}
	return StateRevoked, true
}

// filterChange is one logged flip of revoked membership: the id's
// filter key, and whether it joined the set.
type filterChange struct {
	key uint64
	add bool
}

// setRevoked makes the resident set agree with st, id's newest state,
// and logs a membership flip for the next filter epoch. It is the one
// place revoked membership changes. The caller holds sh.mu for writing
// (or owns the shard, in recovery).
func (sh *shard) setRevoked(id ids.PhotoID, st State) {
	_, was := sh.revoked[id]
	now := st == StateRevoked || st == StatePermanentlyRevoked
	if now {
		sh.revoked[id] = st == StatePermanentlyRevoked
	} else if was {
		delete(sh.revoked, id)
	}
	switch {
	case was == now || sh.changesLost:
	case len(sh.changes) == sh.changeCap:
		sh.changesLost = true
	default:
		sh.changes = append(sh.changes, filterChange{key: FilterKey(id), add: now})
	}
}

// newShards allocates n initialized shards.
func newShards(n int) []shard {
	s := make([]shard, n)
	for i := range s {
		s[i].records = make(map[ids.PhotoID]*Record)
		s[i].overlays = make(map[ids.PhotoID]overlay)
		s[i].revoked = make(map[ids.PhotoID]bool)
		s[i].memo.max = max(1, memoMaxEntries/n)
		s[i].changeCap = max(1, changeLogMax/n)
	}
	return s
}

// normalizeShards rounds a configured shard count to the next power of
// two (mask selection requires it); <= 0 selects the default.
func normalizeShards(n int) int {
	if n <= 0 {
		n = defaultShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardFor routes an identifier to its shard.
func (l *Ledger) shardFor(id ids.PhotoID) *shard {
	return &l.shards[id.Hash64()&l.shardMask]
}

// lockAllShards read-locks every shard in index order and returns an
// unlock function. While held, no mutation is in flight anywhere
// (mutators hold a shard write lock across their WAL append), so the
// caller sees a frozen, consistent state — a memtable flush uses this
// to pair its cut with the WAL rotation.
func (l *Ledger) lockAllShards() (unlock func()) {
	for i := range l.shards {
		l.shards[i].mu.RLock()
	}
	return func() {
		for i := range l.shards {
			l.shards[i].mu.RUnlock()
		}
	}
}
