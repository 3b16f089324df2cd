package ledger

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Group-commit write-ahead log.
//
// An appender that finds nothing staged and no leader at work leads at
// once and writes its own encoded frames, uncopied: the serving path's
// lone claim or op, and every bulk-restore chunk. Any other appender
// copies its frames into the shared pending buffer under gw.mu and waits
// for a leader to make them durable. The first waiter whose records are
// not yet synced becomes the leader: it swaps the pending buffer for the
// spare one, writes and fsyncs it outside the lock, then advances
// syncedSeq and wakes every waiter the batch covered. While the leader
// is in write(2)/fsync(2), later appenders keep stacking records into
// the other buffer, so N concurrent appends cost ~1–2 fsyncs instead of
// N — the group commit the benchmark reports as
// ledger.wal_syncs_per_write.
//
// In WALSyncOS mode appends return once a leader has handed the record
// to the OS without fsync; durability is the caller's periodic Sync().
//
// The log rotates at memtable flush: the engine freezes appends (it
// read-locks every shard, and an appender holds its shard's write lock
// across the append), calls rotate, and replays only
// files at or above the manifest's wal_seq on recovery.

type gcwal struct {
	dir     string
	durable bool // fsync per batch (WALSyncBatch) vs OS-buffered

	mu   sync.Mutex
	cond *sync.Cond

	f    *os.File
	seq  uint64 // current file sequence number
	size int64  // bytes written to the current file

	// pending stages followers' frames; spare is the buffer the last
	// leader wrote from, kept so that the two alternate without
	// allocating.
	pending, spare []byte

	writeSeq  uint64 // records assigned, monotonically
	syncedSeq uint64 // records durable (or handed to the OS)
	flushing  bool   // a leader is in write/fsync
	err       error  // sticky I/O error; poisons subsequent appends

	// syncFile is the durability call, injectable so tests can count
	// and slow real fsyncs deterministically.
	syncFile func(*os.File) error

	syncs   atomic.Uint64 // fsync batches issued
	records atomic.Uint64 // records appended
}

const walFilePrefix = "wal-"

// walRetainBuf is the largest staging buffer kept for reuse; one that a
// bulk restore grew past it is left to the collector.
const walRetainBuf = 1 << 20

func walFileName(seq uint64) string {
	return fmt.Sprintf("%s%08d.wlog", walFilePrefix, seq)
}

// parseWALSeq extracts the sequence number from a WAL file name.
func parseWALSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, walFilePrefix) || !strings.HasSuffix(name, ".wlog") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, walFilePrefix), ".wlog")
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listWALFiles returns the WAL file sequence numbers present in dir,
// ascending.
func listWALFiles(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if s, ok := parseWALSeq(e.Name()); ok {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
	return seqs, nil
}

// openGCWAL opens (creating if needed) the WAL file with sequence seq
// for appending.
func openGCWAL(dir string, seq uint64, durable bool) (*gcwal, error) {
	f, err := os.OpenFile(filepath.Join(dir, walFileName(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: opening wal %d: %w", seq, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &gcwal{
		dir:      dir,
		durable:  durable,
		f:        f,
		seq:      seq,
		size:     st.Size(),
		syncFile: (*os.File).Sync,
	}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// append logs frames (one or more complete frames, pre-encoded) and
// returns once they are durable (WALSyncBatch) or handed to the OS
// (WALSyncOS). recs is the record count inside frames, for metrics.
// The caller must leave frames alone until append returns.
func (w *gcwal) append(frames []byte, recs int) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.writeSeq++
	myseq := w.writeSeq
	w.records.Add(uint64(recs))
	if !w.flushing && len(w.pending) == 0 {
		// Every earlier byte is in the file, so these go next as they are.
		w.lockedLeadFlush(frames)
	} else {
		w.pending = append(w.pending, frames...)
	}

	for w.syncedSeq < myseq {
		if w.err != nil {
			err := w.err
			w.mu.Unlock()
			return err
		}
		if !w.flushing {
			w.lockedLeadFlush(nil)
			continue
		}
		w.cond.Wait()
	}
	err := w.err
	w.mu.Unlock()
	return err
}

// lockedLeadFlush runs one group-commit batch. Called with w.mu held;
// returns with w.mu held. The caller becomes the leader: it takes own
// (its frames, when nothing was staged) or else swaps the pending
// buffer for the spare, performs the write and (in durable mode) the
// fsync outside the lock, then publishes the new synced sequence.
func (w *gcwal) lockedLeadFlush(own []byte) {
	w.flushing = true
	var staged []byte
	buf := own
	if own == nil {
		staged, w.pending, w.spare = w.pending, w.spare[:0], nil
		buf = staged
	}
	target := w.writeSeq
	f := w.f
	w.mu.Unlock()

	var werr error
	if len(buf) > 0 {
		_, werr = f.Write(buf)
	}
	if werr == nil && w.durable {
		werr = w.syncFile(f)
		w.syncs.Add(1)
	}

	w.mu.Lock()
	w.flushing = false
	if staged != nil && cap(staged) <= walRetainBuf {
		w.spare = staged[:0]
	}
	if werr != nil {
		if w.err == nil {
			w.err = fmt.Errorf("ledger: wal append: %w", werr)
		}
	} else {
		w.size += int64(len(buf))
		if target > w.syncedSeq {
			w.syncedSeq = target
		}
	}
	w.cond.Broadcast()
}

// drain flushes any pending bytes and waits for in-flight leaders.
// Called with w.mu held; returns with w.mu held.
func (w *gcwal) drain() {
	for {
		if w.err != nil {
			return
		}
		if w.syncedSeq >= w.writeSeq && !w.flushing {
			return
		}
		if !w.flushing {
			w.lockedLeadFlush(nil)
			continue
		}
		w.cond.Wait()
	}
}

// sync forces everything staged so far to stable storage regardless of
// mode — the periodic durability point in WALSyncOS.
func (w *gcwal) sync() error {
	w.mu.Lock()
	w.drain()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	f := w.f
	w.mu.Unlock()
	if err := f.Sync(); err != nil {
		return err
	}
	w.syncs.Add(1)
	return nil
}

// rotate drains the current file, fsyncs it, and switches appends to a
// new file with the next sequence number. The engine calls this only
// while every mutator is excluded (all shard locks held), so no append
// races the switch.
func (w *gcwal) rotate() (oldSeq, newSeq uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.drain()
	if w.err != nil {
		return 0, 0, w.err
	}
	if err := w.f.Sync(); err != nil {
		return 0, 0, err
	}
	nf, err := os.OpenFile(filepath.Join(w.dir, walFileName(w.seq+1)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("ledger: rotating wal: %w", err)
	}
	if err := w.f.Close(); err != nil {
		nf.Close()
		return 0, 0, err
	}
	oldSeq = w.seq
	w.f = nf
	w.seq++
	w.size = 0
	return oldSeq, w.seq, nil
}

// walSize reports bytes staged or written to the current file.
func (w *gcwal) walSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size + int64(len(w.pending))
}

func (w *gcwal) close() error {
	w.mu.Lock()
	w.drain()
	err := w.err
	f := w.f
	w.mu.Unlock()
	if err != nil {
		f.Close()
		return err
	}
	if serr := f.Sync(); serr != nil {
		f.Close()
		return serr
	}
	return f.Close()
}

// replayWALFile applies one binary WAL file into the recovering ledger.
// final selects torn-tail tolerance: the newest file may end mid-frame
// (a crash mid-append) and is truncated back to the last whole record;
// any other file, and any bad frame with complete frames after it, is
// corruption and fails recovery loudly.
func replayWALFile(l *Ledger, path string, final bool) (claims uint64, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("ledger: reading wal: %w", err)
	}
	var off int64
	for off < int64(len(buf)) {
		payload, next, ferr := frameAt(buf, off)
		if ferr == errFrameTorn && final {
			// Crash mid-append: drop the torn tail and recover.
			if terr := os.Truncate(path, off); terr != nil {
				return claims, fmt.Errorf("ledger: truncating torn wal tail: %w", terr)
			}
			return claims, nil
		}
		if ferr != nil {
			return claims, fmt.Errorf("ledger: wal %s at offset %d: %w", filepath.Base(path), off, ferr)
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return claims, fmt.Errorf("ledger: wal %s at offset %d: %w", filepath.Base(path), off, derr)
		}
		// A claim frame for an id already held is its newer version.
		fresh := false
		if rec.kind == recClaim {
			held, herr := l.holds(l.shardFor(rec.id), rec.id)
			if herr != nil {
				return claims, herr
			}
			fresh = !held
		}
		if aerr := applyBinRec(l, rec); aerr != nil {
			return claims, fmt.Errorf("ledger: replaying wal %s: %w", filepath.Base(path), aerr)
		}
		if fresh {
			claims++
		}
		off = next
	}
	return claims, nil
}

// applyBinRec replays one binary record into the (single-threaded,
// pre-serving) ledger. An op or permanent revocation of a record that
// lives only in a segment leaves an overlay, as the live operation did.
func applyBinRec(l *Ledger, r *binRec) error {
	sh := l.shardFor(r.id)
	switch r.kind {
	case recClaim:
		sh.records[r.id] = r.rec
		delete(sh.overlays, r.id)
		sh.setRevoked(r.id, r.rec.State)
		if l.store != nil {
			l.store.noteSerial(r.rec.Timestamp.Serial)
		}
	case recOp, recPerm:
		_, seq, _, err := l.newest(sh, r.id)
		if errors.Is(err, ErrNotFound) {
			return fmt.Errorf("op for unknown claim %s", r.id)
		}
		if err != nil {
			return err
		}
		switch {
		case r.kind == recPerm:
			sh.setVersion(r.id, StatePermanentlyRevoked, seq)
		case r.op == OpRevoke:
			sh.setVersion(r.id, StateRevoked, r.seq)
		case r.op == OpUnrevoke:
			sh.setVersion(r.id, StateActive, r.seq)
		default:
			return fmt.Errorf("unknown op %d in wal", r.op)
		}
	default:
		return fmt.Errorf("unknown wal record kind %q", r.kind)
	}
	return nil
}
