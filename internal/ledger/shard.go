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
//   - filter snapshots: Bloom bits are an order-insensitive OR, so
//     iterating shards in fixed index order yields byte-identical
//     filters to the single-map build;
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
	mu      sync.RWMutex
	records map[ids.PhotoID]*Record
	// revoked is the resident revoked set, whole whatever the memtable
	// holds: an id is present while its newest version is revoked, and
	// its value is true when that revocation is permanent. Filter
	// snapshots are built from it, and it answers a status query for a
	// revoked id the memtable misses (see state).
	revoked map[ids.PhotoID]bool

	// memo is this stripe of the per-second proof-signature memo
	// (proof.go). It has its own mutex: a query writes to it while
	// holding no record lock.
	memo proofMemo
}

// state answers a status query from what the shard holds: the memtable,
// then the resident revoked set. False means only the segments know the
// id — it is active or unknown. The caller holds sh.mu.
func (sh *shard) state(id ids.PhotoID) (State, bool) {
	if rec, ok := sh.records[id]; ok {
		return rec.State, true
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

// setRevoked makes the resident set agree with st, id's newest state.
// The caller holds sh.mu for writing (or owns the shard, in recovery).
func (sh *shard) setRevoked(id ids.PhotoID, st State) {
	if st == StateRevoked || st == StatePermanentlyRevoked {
		sh.revoked[id] = st == StatePermanentlyRevoked
	} else {
		delete(sh.revoked, id)
	}
}

// newShards allocates n initialized shards.
func newShards(n int) []shard {
	s := make([]shard, n)
	for i := range s {
		s[i].records = make(map[ids.PhotoID]*Record)
		s[i].revoked = make(map[ids.PhotoID]bool)
		s[i].memo.max = max(1, memoMaxEntries/n)
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
