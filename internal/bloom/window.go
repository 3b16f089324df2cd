package bloom

import (
	"errors"
	"sync"
)

// Numbered filter epochs (§4.4's hourly updates). Every holder of a
// revocation filter — the ledger that publishes it, each topology tier
// that relays it, the proxy that probes it — speaks one sync protocol:
// the caller presents the epoch it holds and the hash of the bits it
// actually has, and gets back the Update payload (or nothing) that
// brings it to the latest epoch. Window is the serving half, a bounded
// history of epochs; Pull is the client half. Both sit beside
// Update/ApplyUpdate so the install and serve rules exist once.

// ErrNoEpoch is returned by Window.Sync before the first Install.
var ErrNoEpoch = errors.New("bloom: no filter epoch published yet")

// SyncFunc is one round of the sync protocol's serving half:
// Window.Sync or anything that forwards to one (a ledger, a tier, a
// wire client).
type SyncFunc func(from uint64, baseHash []byte) (payload []byte, latest uint64, err error)

// Window retains the newest epochs of a filter in increasing epoch
// order, up to a history bound, so callers a few epochs behind still
// get deltas. Safe for concurrent use; installed filters are shared and
// must not be mutated.
type Window struct {
	mu      sync.RWMutex
	epochs  []windowEpoch
	history int
}

type windowEpoch struct {
	epoch uint64
	f     *Filter
	hash  [32]byte
}

// NewWindow returns an empty window retaining up to history epochs (at
// least one).
func NewWindow(history int) *Window {
	return &Window{history: max(history, 1)}
}

// Install publishes f as epoch and evicts the oldest epoch past the
// history bound. Every retained epoch at or past epoch goes first: a
// holder only installs a number at or below its newest when the
// upstream restarted and renumbered, and those numbers now name other
// bits — the install must be what Latest serves from here on.
func (w *Window) Install(epoch uint64, f *Filter) {
	e := windowEpoch{epoch: epoch, f: f, hash: f.Hash()}
	w.mu.Lock()
	defer w.mu.Unlock()
	keep := len(w.epochs)
	for keep > 0 && w.epochs[keep-1].epoch >= epoch {
		keep--
	}
	clear(w.epochs[keep:])
	w.epochs = append(w.epochs[:keep], e)
	if drop := len(w.epochs) - w.history; drop > 0 {
		n := copy(w.epochs, w.epochs[drop:])
		clear(w.epochs[n:])
		w.epochs = w.epochs[:n]
	}
}

// Latest returns the newest epoch and its filter (shared, do not
// mutate), or ok=false before the first Install.
func (w *Window) Latest() (epoch uint64, f *Filter, ok bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if len(w.epochs) == 0 {
		return 0, nil, false
	}
	e := w.epochs[len(w.epochs)-1]
	return e.epoch, e.f, true
}

// Sync is the serve rule. The caller states the epoch it holds and the
// hash of the filter it actually has, and always gets back whatever
// brings it to the latest epoch:
//
//   - Caller already at the latest epoch with the matching hash: empty
//     payload (nothing to transfer).
//   - Known epoch whose retained filter hashes to baseHash: the cheaper
//     of a base-validated delta and a full snapshot (Update's size
//     gate).
//   - Anything else — epoch expired from history, epoch ahead of us (a
//     restarted origin renumbering epochs), or a hash that doesn't
//     match what we hold under that epoch (the caller's copy is not
//     what it thinks it is): a full snapshot. Mismatch is a normal sync
//     outcome here, never an error.
//
// The only error is ErrNoEpoch before the first Install.
func (w *Window) Sync(from uint64, baseHash []byte) (payload []byte, latest uint64, err error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if len(w.epochs) == 0 {
		return nil, 0, ErrNoEpoch
	}
	last := w.epochs[len(w.epochs)-1]
	var base *Filter
	for _, e := range w.epochs {
		if e.epoch == from && string(baseHash) == string(e.hash[:]) {
			base = e.f
		}
	}
	if base != nil && from == last.epoch {
		return nil, last.epoch, nil
	}
	payload, err = Update(base, last.f)
	return payload, last.epoch, err
}

// Pull is one client round of the sync protocol for a holder of filter
// held at epoch (held nil: it holds nothing). It presents (epoch, hash)
// to src and applies the answer. A payload the held filter cannot
// absorb (an upstream restart, local corruption) is retried once as a
// cold src(0, nil) — the full-snapshot fallback — so Pull converges
// whenever the upstream serves at all. next is nil when the holder is
// already current; bytes counts the payload bytes moved.
func Pull(src SyncFunc, epoch uint64, held *Filter) (next *Filter, latest uint64, bytes int, err error) {
	var baseHash []byte
	if held != nil {
		h := held.Hash()
		baseHash = h[:]
	}
	payload, latest, err := src(epoch, baseHash)
	if err != nil || len(payload) == 0 {
		return nil, latest, 0, err
	}
	bytes = len(payload)
	// ApplyUpdate works on a clone: held is untouched if the payload
	// turns out not to apply.
	if next, err = ApplyUpdate(held, payload); err == nil {
		return next, latest, bytes, nil
	}
	if payload, latest, err = src(0, nil); err != nil {
		return nil, latest, bytes, err
	}
	bytes += len(payload)
	next, err = ApplyUpdate(nil, payload)
	return next, latest, bytes, err
}
