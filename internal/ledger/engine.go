package ledger

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"irs/internal/ids"
)

// Engine is the type of Config.Engine, which selects nothing: the
// segment engine is the only persistent engine. The type and its one
// (zero) value remain because the frozen bench/ module names them.
type Engine int

// EngineSegments is the group-commit WAL + sorted-segment engine.
const EngineSegments Engine = 0

// WALSyncMode selects the durability posture of WAL appends.
type WALSyncMode int

const (
	// WALSyncBatch fsyncs before an append returns, with concurrent
	// appends coalesced onto one fsync by group commit. The default: an
	// acknowledged revocation survives a host crash.
	WALSyncBatch WALSyncMode = iota
	// WALSyncOS hands appends to the OS without fsync; the log is synced
	// only when it rotates at a memtable flush and at Close, so a host
	// crash loses what was acknowledged since. No binary runs it; the
	// frozen bench/ module names it.
	WALSyncOS
)

// Default engine tuning. Exposed through Config so the storage bench
// and tests can shrink them.
const (
	defaultMemtableRecords = 1 << 16
	defaultCompactAfter    = 8
)

// segEngine is the log-structured storage engine: recent mutations live
// in the shard maps (the memtable) and in a group-commit WAL; sealed
// state lives in immutable sorted segments listed by the manifest.
//
// Appends touch only their shard lock and the WAL. A memtable flush
// briefly freezes mutation — it read-locks every shard (lockAllShards),
// which excludes mutators and lets readers through, though a reader
// arriving behind a waiting mutator queues with it — but for one slab
// copy bounded by the memtable size, not the database size; segment
// merging — the expensive part — runs in the background against
// immutable inputs and never blocks appends.
type segEngine struct {
	l   *Ledger
	dir string

	wal *gcwal

	// segs is the live segment list. Readers pin it (pin) and never
	// lock; flush and compaction publish a new list whole.
	segs atomic.Pointer[segList]

	// mu serializes flush, compaction, and manifest updates.
	mu  sync.Mutex
	man *manifest

	// keys are the ledger's signing and timestamp keys, from KEYS.
	keys ledgerKeys

	// claimCount is the exact number of distinct claims. A claim is
	// counted under its shard's write lock, so a freeze reads a count
	// that matches its cut; a newer version of a held id is not counted.
	claimCount atomic.Uint64
	memRecs    atomic.Int64 // approximate memtable entries
	// maxSerial is the largest timestamp serial among the claims logged
	// or recovered, noted before a claim enters its shard, so a freeze
	// reads a bound for its cut.
	maxSerial atomic.Uint64

	flushLimit   int64
	compactAfter int

	flushActive atomic.Bool
	bg          sync.WaitGroup
	bgErr       atomic.Value // error from a background flush/compaction

	// segFailAfter, when set, makes the next segment seal fail after
	// that many bytes — the crash-injection suite's kill switch.
	segFailAfter atomic.Int64
	// beforeEvict, when set, runs between a flush's manifest swap and its
	// eviction walk — where tests mutate a record the cut already holds.
	beforeEvict func()

	closed atomic.Bool
}

// openSegEngine recovers (or initializes) a segment-engine directory
// and wires it into l. Recovery order: manifest → keys → segments →
// revoked sets → WAL replay → orphan cleanup. A directory in another
// format is refused before anything in it changes.
func openSegEngine(l *Ledger, cfg Config) (*segEngine, error) {
	dir := cfg.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: creating %s: %w", dir, err)
	}
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	keys, err := openKeys(dir, man)
	if err != nil {
		return nil, err
	}
	eng := &segEngine{
		l:            l,
		dir:          dir,
		man:          man,
		keys:         keys,
		flushLimit:   int64(cfg.MemtableRecords),
		compactAfter: cfg.CompactAfter,
	}
	if eng.flushLimit <= 0 {
		eng.flushLimit = defaultMemtableRecords
	}
	if eng.compactAfter <= 0 {
		eng.compactAfter = defaultCompactAfter
	}

	segs := make([]*segReader, 0, len(man.Segments))
	for _, ms := range man.Segments {
		sr, err := openSegment(filepath.Join(dir, ms.File))
		if err != nil {
			for _, s := range segs {
				s.close()
			}
			return nil, err
		}
		segs = append(segs, sr)
	}
	eng.segs.Store(newSegList(segs))
	eng.claimCount.Store(man.Claims)
	eng.maxSerial.Store(man.MaxSerial)
	l.store = eng // applyBinRec and read paths need lookups during replay

	// Rebuild the in-memory revoked sets, with permanence, from the
	// per-segment revoked lists. A revoked entry in an older segment is
	// shadowed if any newer segment holds a newer version of the record;
	// an unshadowed one reads its state byte from its own segment.
	for i, sr := range segs {
		for _, id := range sr.revokedIDs() {
			shadowed := false
			var err error
			for j := 0; j < i && !shadowed && err == nil; j++ {
				shadowed, err = segs[j].contains(id)
			}
			if !shadowed && err == nil {
				st, held, serr := sr.lookupState(id)
				if err = serr; err == nil && !held {
					err = fmt.Errorf("ledger: segment %s lists revoked %s but holds no record of it", sr.path, id)
				}
				l.shardFor(id).setRevoked(id, st)
			}
			if err != nil {
				eng.segs.Load().unpin()
				return nil, err
			}
		}
	}

	// Replay WAL files the manifest does not cover, ascending. Only the
	// newest file may end in a torn append.
	seqs, err := listWALFiles(dir)
	if err != nil {
		eng.segs.Load().unpin()
		return nil, err
	}
	var replay []uint64
	for _, s := range seqs {
		if s >= man.WALSeq {
			replay = append(replay, s)
		}
	}
	for i, s := range replay {
		claims, err := replayWALFile(l, filepath.Join(dir, walFileName(s)), i == len(replay)-1)
		eng.claimCount.Add(claims)
		if err != nil {
			eng.segs.Load().unpin()
			return nil, err
		}
	}

	// Orphans: WAL files below the manifest's floor and segment files a
	// crashed flush or compaction sealed but never published.
	live := make(map[string]bool, len(man.Segments))
	for _, ms := range man.Segments {
		live[ms.File] = true
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		eng.segs.Load().unpin()
		return nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if s, ok := parseWALSeq(name); ok && s < man.WALSeq {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if isSegFile(name) && !live[name] {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if name == manifestFile+".tmp" || name == keyFile+".tmp" {
			os.Remove(filepath.Join(dir, name))
		}
	}

	var mem int64
	for i := range l.shards {
		mem += int64(l.shards[i].memtableLen())
	}
	eng.memRecs.Store(mem)

	walSeq := man.WALSeq
	if n := len(seqs); n > 0 && seqs[n-1] > walSeq {
		walSeq = seqs[n-1]
	}
	w, err := openGCWAL(dir, walSeq, cfg.WALSync == WALSyncBatch)
	if err != nil {
		eng.segs.Load().unpin()
		return nil, err
	}
	eng.wal = w
	eng.publishGauges()
	return eng, nil
}

// segList is one published list of live segments, newest first. A
// reader pins the list it loads for as long as it reads the segments'
// mappings or keeps bytes aliasing them; the engine holds one pin on the
// live list, and drops it when it publishes the next. The last unpin
// releases the list's hold on each of its segments, and a segment no
// list holds — one a compaction retired — is unmapped then.
type segList struct {
	segs []*segReader
	pins atomic.Int64
}

// newSegList makes a list of segs, pinned once for the engine.
func newSegList(segs []*segReader) *segList {
	sl := &segList{segs: segs}
	sl.pins.Store(1)
	for _, sr := range segs {
		sr.lists.Add(1)
	}
	return sl
}

// pin returns the live segment list, pinned.
func (e *segEngine) pin() *segList {
	for {
		sl := e.segs.Load()
		for n := sl.pins.Load(); n > 0; n = sl.pins.Load() {
			if sl.pins.CompareAndSwap(n, n+1) {
				return sl
			}
		}
		// Its last pin went between the load and here, so a newer list is
		// live already.
	}
}

// unpin releases one pin on sl, which may be nil (nothing pinned).
func (sl *segList) unpin() error {
	if sl == nil || sl.pins.Add(-1) > 0 {
		return nil
	}
	var err error
	for _, sr := range sl.segs {
		if sr.lists.Add(-1) == 0 {
			if cerr := sr.close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// publish makes segs the live list and drops the engine's pin on the
// list it replaces. The caller holds e.mu.
func (e *segEngine) publish(segs []*segReader) error {
	return e.segs.Swap(newSegList(segs)).unpin()
}

func (e *segEngine) setBgErr(err error) {
	if err != nil {
		e.bgErr.CompareAndSwap(nil, err)
	}
}

func (e *segEngine) takeBgErr() error {
	if v := e.bgErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// publishGauges mirrors engine state into the obs registry.
func (e *segEngine) publishGauges() {
	m := &e.l.metrics
	m.segments.Set(int64(len(e.segs.Load().segs)))
	m.memtable.Set(e.memRecs.Load())
	m.walSyncs.Store(e.wal.syncs.Load())
	m.walRecords.Store(e.wal.records.Load())
}

func (e *segEngine) logClaim(rec *Record) error {
	frame, err := appendClaimFrame(make([]byte, 0, claimFrameSize(rec)), rec)
	if err != nil {
		return err
	}
	e.noteSerial(rec.Timestamp.Serial)
	if err := e.wal.append(frame, 1); err != nil {
		return err
	}
	e.claimCount.Add(1)
	if e.memRecs.Add(1) >= e.flushLimit {
		e.maybeFlush()
	}
	return nil
}

// noteSerial raises maxSerial to s.
func (e *segEngine) noteSerial(s uint64) {
	for cur := e.maxSerial.Load(); s > cur && !e.maxSerial.CompareAndSwap(cur, s); cur = e.maxSerial.Load() {
	}
}

// opFrameMax bounds an op or permanent-revocation frame: header, kind,
// id, op byte, sequence varint.
const opFrameMax = frameHeaderSize + 1 + 16 + 1 + binary.MaxVarintLen64

func (e *segEngine) logOp(id ids.PhotoID, op Op, seq uint64) error {
	return e.wal.append(appendOpFrame(make([]byte, 0, opFrameMax), id, op, seq), 1)
}

func (e *segEngine) logPermanent(id ids.PhotoID) error {
	return e.wal.append(appendPermFrame(make([]byte, 0, opFrameMax), id), 1)
}

// findSealed probes segs newest-first and returns the payload of id's
// newest sealed claim frame, aliasing its segment's mapping: the caller
// holds a pin on a list of segs, or e.mu.
func findSealed(segs []*segReader, id ids.PhotoID) ([]byte, bool, error) {
	for _, sr := range segs {
		if payload, ok, err := sr.find(id); ok || err != nil {
			return payload, ok, err
		}
	}
	return nil, false, nil
}

// sealedHead reads the state, sequence number and public key of id's
// newest version in sl in place: pub aliases the mapping, so it is good
// while the caller keeps sl pinned. Callers have already missed the
// memtable's records.
func sealedHead(sl *segList, id ids.PhotoID) (st State, seq uint64, pub []byte, ok bool, err error) {
	payload, ok, err := findSealed(sl.segs, id)
	if !ok {
		return StateUnknown, 0, nil, false, err
	}
	st, seq, pub, _, err = claimHead(payload)
	return st, seq, pub, err == nil, err
}

// lookup decodes id's newest sealed version into a record of its own.
// Callers have already missed the memtable's records; one that holds an
// overlay for id lays it over the result.
func (e *segEngine) lookup(id ids.PhotoID) (*Record, bool, error) {
	sl := e.pin()
	defer sl.unpin()
	payload, ok, err := findSealed(sl.segs, id)
	if !ok {
		return nil, false, err
	}
	r, err := decodeRecord(payload)
	if err != nil {
		return nil, false, err
	}
	return r.rec, true, nil
}

// lookupState is lookup for Status and StatusBatch, which want the state
// alone; an identifier no segment holds is StateUnknown.
func (e *segEngine) lookupState(id ids.PhotoID) (State, error) {
	sl := e.pin()
	defer sl.unpin()
	return sealedState(sl, id)
}

// sealedState is lookupState in a list the caller has pinned.
func sealedState(sl *segList, id ids.PhotoID) (State, error) {
	for _, sr := range sl.segs {
		if st, ok, err := sr.lookupState(id); ok || err != nil {
			return st, err
		}
	}
	return StateUnknown, nil
}

// maybeFlush starts a background flush (and, if the segment count has
// built up, a compaction) unless one is already running. Called from
// the append path; never blocks.
func (e *segEngine) maybeFlush() {
	if e.closed.Load() || !e.flushActive.CompareAndSwap(false, true) {
		return
	}
	e.bg.Add(1)
	go func() {
		defer e.bg.Done()
		defer func() {
			e.flushActive.Store(false)
			// Close the lost-wakeup window: a trigger that arrived while
			// flushActive was still set was dropped, so re-check.
			if !e.closed.Load() && e.memRecs.Load() >= e.flushLimit {
				e.maybeFlush()
			}
		}()
		e.mu.Lock()
		defer e.mu.Unlock()
		for !e.closed.Load() {
			if err := e.flushLocked(); err != nil {
				e.setBgErr(err)
				return
			}
			if len(e.segs.Load().segs) >= e.compactAfter {
				if err := e.compactLocked(); err != nil {
					e.setBgErr(err)
					return
				}
			}
			// Appends may have refilled the memtable while we worked.
			if e.memRecs.Load() < e.flushLimit {
				return
			}
		}
	}()
}

// sealSegment writes the newest-wins merge of a memtable cut and segs as
// the next segment file, durably, and opens it. Called with e.mu held,
// which keeps the live segment list, that the cut's overlays are joined
// with, the one the cut was frozen over.
func (e *segEngine) sealSegment(expected int, cut []Record, segs []*segReader) (*segReader, manifestSeg, error) {
	name := segFileName(e.man.NextSeg)
	path := filepath.Join(e.dir, name)
	sw, err := newSegWriter(path, expected, e.segFailAfter.Swap(0))
	if err != nil {
		return nil, manifestSeg{}, err
	}
	if err = mergeSegments(cut, sortCut(cut), e.segs.Load().segs, segs, sw.add); err == nil {
		err = sw.finish()
	}
	if err != nil {
		sw.abort(path)
		return nil, manifestSeg{}, err
	}
	if err := syncDir(e.dir); err != nil {
		return nil, manifestSeg{}, err
	}
	sr, err := openSegment(path)
	return sr, manifestSeg{File: name, Count: sw.count, Revoked: uint64(len(sw.revoked) / 16), Bytes: sw.written}, err
}

// flushLocked seals the memtable into a new segment. Mutation is frozen
// only while the memtable is copied into one slab and the WAL rotated —
// time bounded by the memtable, not the database; sorting, encoding, the
// segment write, and the manifest swap all run with appends live.
func (e *segEngine) flushLocked() error {
	l := e.l

	unlock := l.lockAllShards()
	cut := l.copyMemtable()
	cutClaims, cutSerial := e.claimCount.Load(), e.maxSerial.Load()
	_, newSeq, err := e.wal.rotate()
	unlock()
	if err != nil {
		return err
	}
	if len(cut) == 0 {
		// Nothing to seal; still advance the manifest so the drained WAL
		// files can be dropped.
		newMan := *e.man
		newMan.WALSeq, newMan.MaxSerial = newSeq, cutSerial
		if err := writeManifest(e.dir, &newMan); err != nil {
			return err
		}
		e.man = &newMan
		return e.dropOldWALs(newSeq)
	}

	sr, seg, err := e.sealSegment(len(cut), cut, nil)
	if err != nil {
		return err
	}
	newMan := &manifest{
		WALSeq:    newSeq,
		NextSeg:   e.man.NextSeg + 1,
		Claims:    cutClaims,
		MaxSerial: cutSerial,
		Segments:  append([]manifestSeg{seg}, e.man.Segments...),
	}
	if err := writeManifest(e.dir, newMan); err != nil {
		sr.close()
		os.Remove(sr.path)
		return err
	}
	e.man = newMan
	if err := e.publish(append([]*segReader{sr}, e.segs.Load().segs...)); err != nil {
		return err
	}

	if e.beforeEvict != nil {
		e.beforeEvict()
	}
	// Evict the entries the segment now covers: the cut lies grouped by
	// shard in index order, so each shard is locked once and asked only
	// for its own. Anything mutated since the freeze stays in the
	// memtable as the newer version.
	var remaining int64
	for i, k := 0, 0; i < len(l.shards); i++ {
		sh := &l.shards[i]
		sh.mu.Lock()
		for ; k < len(cut) && l.shardFor(cut[k].ID) == sh; k++ {
			cp := &cut[k]
			if isOverlay(cp) {
				if ov, ok := sh.overlays[cp.ID]; ok && ov == (overlay{cp.State, cp.OpSeq}) {
					delete(sh.overlays, cp.ID)
				}
			} else if rec, ok := sh.records[cp.ID]; ok && rec.OpSeq == cp.OpSeq && rec.State == cp.State {
				delete(sh.records, cp.ID)
			}
		}
		remaining += int64(sh.memtableLen())
		sh.mu.Unlock()
	}
	e.memRecs.Store(remaining)

	if err := e.dropOldWALs(newSeq); err != nil {
		return err
	}
	e.l.metrics.flushes.Inc()
	e.publishGauges()
	return nil
}

func (e *segEngine) dropOldWALs(floor uint64) error {
	seqs, err := listWALFiles(e.dir)
	if err != nil {
		return err
	}
	for _, s := range seqs {
		if s < floor {
			if err := os.Remove(filepath.Join(e.dir, walFileName(s))); err != nil {
				return err
			}
		}
	}
	return nil
}

// compactLocked merges every live segment into one. Inputs are
// immutable and the merge takes no ledger locks, so appends proceed
// untouched for the duration — the property the bench harness gates on.
func (e *segEngine) compactLocked() error {
	old := e.segs.Load().segs
	if len(old) < 2 {
		return nil
	}
	var expected uint64
	for _, sr := range old {
		expected += sr.count
	}
	sr, seg, err := e.sealSegment(int(expected), nil, old)
	if err != nil {
		return err
	}
	newMan := &manifest{
		WALSeq:    e.man.WALSeq,
		NextSeg:   e.man.NextSeg + 1,
		Claims:    e.man.Claims,
		MaxSerial: e.man.MaxSerial,
		Segments:  []manifestSeg{seg},
	}
	if err := writeManifest(e.dir, newMan); err != nil {
		sr.close()
		os.Remove(sr.path)
		return err
	}
	e.man = newMan
	// Unlink the inputs now; readers that pinned a list holding them
	// keep the mappings, which go with the last such pin.
	for _, s := range old {
		os.Remove(s.path)
	}
	if err := e.publish([]*segReader{sr}); err != nil {
		return err
	}
	e.l.metrics.compactions.Inc()
	e.publishGauges()
	return nil
}

// compact flushes the memtable, then merges all segments. The heavy
// work happens without blocking appends.
func (e *segEngine) compact() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.takeBgErr(); err != nil {
		return err
	}
	if err := e.flushLocked(); err != nil {
		return err
	}
	return e.compactLocked()
}

// flush seals the memtable without merging segments.
func (e *segEngine) flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.takeBgErr(); err != nil {
		return err
	}
	return e.flushLocked()
}

func (e *segEngine) close() error {
	e.closed.Store(true)
	e.bg.Wait()
	err := e.wal.close()
	// An empty list stays live, so a read after Close finds nothing.
	if cerr := e.publish(nil); err == nil {
		err = cerr
	}
	if err == nil {
		err = e.takeBgErr()
	}
	return err
}

// Flush forces the memtable into a segment; a no-op for in-memory
// ledgers. Tests and the bench use it to pin engine state at known
// points.
func (l *Ledger) Flush() error {
	if l.store == nil {
		return nil
	}
	return l.store.flush()
}

// Compact flushes the memtable and merges every segment into one,
// without blocking appends; a no-op for in-memory ledgers. The engine
// schedules its own flushes and merges (Config.MemtableRecords,
// Config.CompactAfter), so serving code never needs to call this.
func (l *Ledger) Compact() error {
	if l.store == nil {
		return nil
	}
	return l.store.compact()
}

// StorageStats is a point-in-time view of the persistence engine.
type StorageStats struct {
	Engine          string // "memory" or "segments"
	Claims          uint64 // distinct claims
	Segments        int
	SegmentRecords  uint64 // records across live segments (incl. duplicates)
	MemtableRecords int64
	WALBytes        int64
	WALSyncs        uint64 // fsync batches issued by the group-commit WAL
	WALRecords      uint64 // records appended to the group-commit WAL
	Flushes         uint64
	Compactions     uint64
}

// StorageStats reports engine internals for benches and tests.
func (l *Ledger) StorageStats() StorageStats {
	e := l.store
	if e == nil {
		return StorageStats{Engine: "memory"}
	}
	e.publishGauges()
	segs := e.segs.Load().segs
	var segRecs uint64
	for _, sr := range segs {
		segRecs += sr.count
	}
	return StorageStats{
		Engine:          "segments",
		Claims:          e.claimCount.Load(),
		Segments:        len(segs),
		SegmentRecords:  segRecs,
		MemtableRecords: e.memRecs.Load(),
		WALBytes:        e.wal.walSize(),
		WALSyncs:        e.wal.syncs.Load(),
		WALRecords:      e.wal.records.Load(),
		Flushes:         l.metrics.flushes.Load(),
		Compactions:     l.metrics.compactions.Load(),
	}
}
