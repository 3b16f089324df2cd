package ledger

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
	// WALSyncOS hands appends to the OS without fsync; durability is the
	// periodic Sync() the serving loop already runs. The default.
	WALSyncOS WALSyncMode = iota
	// WALSyncBatch fsyncs before an append returns, with concurrent
	// appends coalesced onto one fsync by group commit.
	WALSyncBatch
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

	// segs is the live segment list, newest first. Readers load the
	// pointer once and never lock; flush and compaction swap it whole.
	segs atomic.Pointer[[]*segReader]

	// mu serializes flush, compaction, and manifest updates.
	mu      sync.Mutex
	man     *manifest
	retired []*segReader // replaced by compaction; unmapped at close

	// claimCount is the exact number of distinct claims. A claim is
	// counted under its shard's write lock, so a freeze reads a count
	// that matches its cut; a newer version of a held id is not counted.
	claimCount atomic.Uint64
	memRecs    atomic.Int64 // approximate memtable entries

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
// and wires it into l. Recovery order: manifest → segments → revoked
// sets → WAL replay → orphan cleanup.
func openSegEngine(l *Ledger, cfg Config) (*segEngine, error) {
	dir := cfg.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: creating %s: %w", dir, err)
	}
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	eng := &segEngine{
		l:            l,
		dir:          dir,
		man:          man,
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
	eng.segs.Store(&segs)
	eng.claimCount.Store(man.Claims)
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
				eng.closeSegs()
				return nil, err
			}
		}
	}

	// Replay WAL files the manifest does not cover, ascending. Only the
	// newest file may end in a torn append.
	seqs, err := listWALFiles(dir)
	if err != nil {
		eng.closeSegs()
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
			eng.closeSegs()
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
		eng.closeSegs()
		return nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if s, ok := parseWALSeq(name); ok && s < man.WALSeq {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if strings.HasPrefix(name, segFilePrefix) && strings.HasSuffix(name, ".seg") && !live[name] {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if name == manifestFile+".tmp" {
			os.Remove(filepath.Join(dir, name))
		}
	}

	var mem int64
	for i := range l.shards {
		mem += int64(len(l.shards[i].records))
	}
	eng.memRecs.Store(mem)

	walSeq := man.WALSeq
	if n := len(seqs); n > 0 && seqs[n-1] > walSeq {
		walSeq = seqs[n-1]
	}
	w, err := openGCWAL(dir, walSeq, cfg.WALSync == WALSyncBatch)
	if err != nil {
		eng.closeSegs()
		return nil, err
	}
	eng.wal = w
	eng.publishGauges()
	return eng, nil
}

func (e *segEngine) closeSegs() {
	for _, sr := range *e.segs.Load() {
		sr.close()
	}
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
	m.segments.Set(int64(len(*e.segs.Load())))
	m.memtable.Set(e.memRecs.Load())
	m.walSyncs.Store(e.wal.syncs.Load())
	m.walRecords.Store(e.wal.records.Load())
}

func (e *segEngine) logClaim(rec *Record) error {
	frame, err := appendClaimFrame(make([]byte, 0, claimFrameMax(rec)), rec)
	if err != nil {
		return err
	}
	if err := e.wal.append(frame, 1); err != nil {
		return err
	}
	e.claimCount.Add(1)
	if e.memRecs.Add(1) >= e.flushLimit {
		e.maybeFlush()
	}
	return nil
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

// lookup probes the segment list newest-first. Callers have already
// missed the memtable, so the first segment hit is the current version.
func (e *segEngine) lookup(id ids.PhotoID) (*Record, bool, error) {
	for _, sr := range *e.segs.Load() {
		rec, ok, err := sr.lookup(id)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return rec, true, nil
		}
	}
	return nil, false, nil
}

// lookupState is lookup for Status and StatusBatch, which want the state
// alone; an identifier no segment holds is StateUnknown.
func (e *segEngine) lookupState(id ids.PhotoID) (State, error) {
	for _, sr := range *e.segs.Load() {
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
			if len(*e.segs.Load()) >= e.compactAfter {
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
// the next segment file, durably, and opens it. Called with e.mu held.
func (e *segEngine) sealSegment(expected int, cut []Record, segs []*segReader) (*segReader, manifestSeg, error) {
	name := segFileName(e.man.NextSeg)
	path := filepath.Join(e.dir, name)
	sw, err := newSegWriter(path, expected, e.segFailAfter.Swap(0))
	if err != nil {
		return nil, manifestSeg{}, err
	}
	if err = mergeSegments(cut, sortCut(cut), segs, sw.add); err == nil {
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
	cutClaims := e.claimCount.Load()
	_, newSeq, err := e.wal.rotate()
	unlock()
	if err != nil {
		return err
	}
	if len(cut) == 0 {
		// Nothing to seal; still advance the manifest so the drained WAL
		// files can be dropped.
		newMan := *e.man
		newMan.WALSeq = newSeq
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
		WALSeq:   newSeq,
		NextSeg:  e.man.NextSeg + 1,
		Claims:   cutClaims,
		Segments: append([]manifestSeg{seg}, e.man.Segments...),
	}
	if err := writeManifest(e.dir, newMan); err != nil {
		sr.close()
		os.Remove(sr.path)
		return err
	}
	e.man = newMan
	old := *e.segs.Load()
	newList := append([]*segReader{sr}, old...)
	e.segs.Store(&newList)

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
			if rec, ok := sh.records[cp.ID]; ok && rec.OpSeq == cp.OpSeq && rec.State == cp.State {
				delete(sh.records, cp.ID)
			}
		}
		remaining += int64(len(sh.records))
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
	old := *e.segs.Load()
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
		WALSeq:   e.man.WALSeq,
		NextSeg:  e.man.NextSeg + 1,
		Claims:   e.man.Claims,
		Segments: []manifestSeg{seg},
	}
	if err := writeManifest(e.dir, newMan); err != nil {
		sr.close()
		os.Remove(sr.path)
		return err
	}
	e.man = newMan
	live := []*segReader{sr}
	e.segs.Store(&live)
	// Readers may still hold the old list; unlink now (the mappings stay
	// valid), unmap at close.
	e.retired = append(e.retired, old...)
	for _, s := range old {
		os.Remove(s.path)
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

func (e *segEngine) sync() error {
	if err := e.wal.sync(); err != nil {
		return err
	}
	e.publishGauges()
	return nil
}

func (e *segEngine) close() error {
	e.closed.Store(true)
	e.bg.Wait()
	err := e.wal.close()
	for _, sr := range *e.segs.Load() {
		if cerr := sr.close(); err == nil {
			err = cerr
		}
	}
	for _, sr := range e.retired {
		if cerr := sr.close(); err == nil {
			err = cerr
		}
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

// Sync forces WAL contents to stable storage; services call it on a
// timer rather than per-operation to trade a bounded window of
// durability for throughput. (With Config.WALSync = WALSyncBatch every
// append is already durable and this is a cheap no-op barrier.)
func (l *Ledger) Sync() error {
	if l.store == nil {
		return nil
	}
	return l.store.sync()
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
	segs := *e.segs.Load()
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
