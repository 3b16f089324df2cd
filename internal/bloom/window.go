package bloom

import (
	"encoding/binary"
	"errors"
	"iter"
	"slices"
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
//
// An epoch costs what changed. Window holds only its newest epoch as a
// filter; every older one is its hash, its population and the step
// from the epoch before it. A step is kept as the IRSBD2 frame a holder
// one epoch behind is sent, or, when a snapshot would be no larger, as
// the XOR of the two bit arrays. A holder further behind gets the
// retained steps XOR-merged into one frame, byte-identical to
// DeltaWithBase of the two filters. Each held epoch carries its hash,
// so Pull presents it and Apply checks the base against it: the only
// hash a holder computes per epoch is the result check.

// ErrNoEpoch is returned by Window.Sync before the first Install.
var ErrNoEpoch = errors.New("bloom: no filter epoch published yet")

// SyncFunc is one round of the sync protocol's serving half:
// Window.Sync or anything that forwards to one (a ledger, a tier, a
// wire client).
type SyncFunc func(from uint64, baseHash []byte) (payload []byte, latest uint64, err error)

// Held is what a holder of one epoch keeps: its number, its filter
// (shared, never mutated) and the filter's hash, which is immutable and
// nil only when F is. The zero Held holds nothing.
type Held struct {
	Epoch uint64
	F     *Filter
	Hash  []byte
}

// Window retains the newest epochs of a filter in increasing epoch
// order, up to a history bound, so callers a few epochs behind still
// get deltas. Safe for concurrent use; installed filters are shared and
// must not be mutated.
type Window struct {
	mu      sync.RWMutex
	epochs  []windowEpoch
	latest  *Filter // the newest epoch's filter
	history int
}

// windowEpoch is one retained epoch. Every entry but the oldest holds
// the step from the entry before it: frame while that delta is smaller
// than a snapshot, xor otherwise.
type windowEpoch struct {
	epoch uint64
	n     uint64
	hash  []byte
	frame []byte
	xor   []uint64
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
//
// Install hashes f and diffs it against the newest epoch, a pass over
// both bit arrays; Pull and Advance install what changed without one.
func (w *Window) Install(epoch uint64, f *Filter) {
	h := f.Hash()
	w.put(Held{Epoch: epoch, F: f, Hash: h[:]}, nil, nil)
}

// put installs next. A delta frame that takes base — the newest epoch
// when the caller read it — to next is kept as the step when base is
// still the newest; otherwise the step is diffed here.
func (w *Window) put(next Held, base *Filter, frame []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	keep := len(w.epochs)
	for keep > 0 && w.epochs[keep-1].epoch >= next.Epoch {
		keep--
	}
	e := windowEpoch{epoch: next.Epoch, n: next.F.n, hash: next.Hash}
	switch prev := w.latest; {
	case keep == 0 || prev.m != next.F.m || prev.k != next.F.k:
		// Nothing retained can reach next by a delta: Update answers a
		// base of other parameters with a snapshot, and so does a
		// window that keeps none.
		keep = 0
	case frame != nil && base == prev && keep == len(w.epochs) &&
		len(frame) < snapshotLen(len(next.F.bits)) && string(frame[34:66]) == string(w.epochs[keep-1].hash):
		e.frame = withPrevN(frame, w.epochs[keep-1].n)
	default:
		// Diff against the newest filter, then undo the steps of the
		// entries this install drops: x = bits(entry keep-1) ^ bits(next).
		x := make([]uint64, len(next.F.bits))
		for i := range x {
			x[i] = prev.bits[i] ^ next.F.bits[i]
		}
		for _, d := range w.epochs[keep:] {
			d.xorInto(x)
		}
		p := w.epochs[keep-1]
		ends := deltaEnds{m: next.F.m, k: next.F.k, prevN: p.n, nextN: e.n, prevHash: p.hash, nextHash: e.hash}
		if e.frame = ends.frame(len(x), diffFlips(x, nil)); e.frame == nil {
			e.xor = x
		}
	}
	w.push(keep, e, next.F)
}

// push drops the entries from keep on, appends e as the newest epoch
// over f and evicts past the history bound. The caller holds w.mu.
func (w *Window) push(keep int, e windowEpoch, f *Filter) {
	clear(w.epochs[keep:])
	w.epochs = append(w.epochs[:keep], e)
	if drop := len(w.epochs) - w.history; drop > 0 {
		n := copy(w.epochs, w.epochs[drop:])
		clear(w.epochs[n:])
		w.epochs = w.epochs[:n]
	}
	// The oldest entry's step leads from an epoch no longer retained.
	w.epochs[0].frame, w.epochs[0].xor = nil, nil
	w.latest = f
}

// withPrevN returns frame with its base population set to n, copying
// only when it differs: an upstream's frame names the upstream's count,
// and the step must be the one this window's own DeltaWithBase gives.
func withPrevN(frame []byte, n uint64) []byte {
	if binary.BigEndian.Uint64(frame[18:]) == n {
		return frame
	}
	out := slices.Clone(frame)
	binary.BigEndian.PutUint64(out[18:], n)
	return out
}

// xorInto flips into x the bits e's step changed.
func (e *windowEpoch) xorInto(x []uint64) {
	if e.xor != nil {
		for i, w := range e.xor {
			x[i] ^= w
		}
		return
	}
	for pos := range frameFlips(e.frame) {
		x[pos/64] ^= 1 << (pos % 64)
	}
}

// Advance publishes epoch as the newest epoch: the current newest with
// flips (ascending, distinct bit positions) flipped and population n.
// It is Install for a publisher that knows what changed — one clone,
// one hash and a delta encoded from the flip list, whatever the filter
// size. Epoch must exceed the newest epoch, and nothing else may
// install meanwhile.
func (w *Window) Advance(epoch uint64, flips []uint64, n uint64) error {
	w.mu.RLock()
	prev := w.latest
	var last windowEpoch
	if prev != nil {
		last = w.epochs[len(w.epochs)-1]
	}
	w.mu.RUnlock()
	if prev == nil || epoch <= last.epoch {
		return errors.New("bloom: advance past no newer epoch")
	}
	next := prev.Clone()
	for _, pos := range flips {
		if pos >= next.m {
			return errors.New("bloom: advance flips a bit out of range")
		}
		next.bits[pos/64] ^= 1 << (pos % 64)
	}
	next.n = n
	h := next.Hash()
	e := windowEpoch{epoch: epoch, n: n, hash: h[:]}
	ends := deltaEnds{m: next.m, k: next.k, prevN: last.n, nextN: n, prevHash: last.hash, nextHash: e.hash}
	if e.frame = ends.frame(len(next.bits), slices.Values(flips)); e.frame == nil {
		e.xor = make([]uint64, len(next.bits))
		for i := range e.xor {
			e.xor[i] = prev.bits[i] ^ next.bits[i]
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.latest != prev {
		return errors.New("bloom: window changed during advance")
	}
	w.push(len(w.epochs), e, next)
	return nil
}

// Latest returns the newest epoch and its filter (shared, do not
// mutate), or ok=false before the first Install.
func (w *Window) Latest() (epoch uint64, f *Filter, ok bool) {
	h := w.held()
	return h.Epoch, h.F, h.F != nil
}

// held returns the newest epoch, or the zero Held before the first
// Install.
func (w *Window) held() Held {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if len(w.epochs) == 0 {
		return Held{}
	}
	e := &w.epochs[len(w.epochs)-1]
	return Held{Epoch: e.epoch, F: w.latest, Hash: e.hash}
}

// RetainedBytes is the memory the window's history holds: the newest
// filter's bit array plus every older epoch's hash and step.
func (w *Window) RetainedBytes() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.latest == nil {
		return 0
	}
	total := 8 * len(w.latest.bits)
	for _, e := range w.epochs {
		total += len(e.hash) + len(e.frame) + 8*len(e.xor)
	}
	return total
}

// Sync is the serve rule. The caller states the epoch it holds and the
// hash of the filter it actually has, and always gets back whatever
// brings it to the latest epoch:
//
//   - Caller already at the latest epoch with the matching hash: empty
//     payload (nothing to transfer).
//   - Known epoch whose retained hash is baseHash: the cheaper of a
//     base-validated delta and a full snapshot (Update's size gate). A
//     caller one epoch behind gets the retained step itself, shared and
//     read-only; one further behind, the retained steps merged.
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
	last := len(w.epochs) - 1
	base := -1
	for i := range w.epochs {
		if e := &w.epochs[i]; e.epoch == from && string(baseHash) == string(e.hash) {
			base = i
		}
	}
	latest = w.epochs[last].epoch
	switch {
	case base == last:
		return nil, latest, nil
	case base < 0:
		return w.latest.Marshal(), latest, nil
	case base == last-1 && w.epochs[last].frame != nil:
		return w.epochs[last].frame, latest, nil
	case base == last-1:
		return w.latest.Marshal(), latest, nil
	}
	b, e := &w.epochs[base], &w.epochs[last]
	ends := deltaEnds{m: w.latest.m, k: w.latest.k, prevN: b.n, nextN: e.n, prevHash: b.hash, nextHash: e.hash}
	if payload = ends.frame(len(w.latest.bits), w.mergeSteps(base+1)); payload == nil {
		payload = w.latest.Marshal()
	}
	return payload, latest, nil
}

// mergeSteps yields, ascending, the bits flipped an odd number of
// times by the steps of entries from on: the XOR of those steps. Frames
// merge as sorted position lists; a dense step folds everything into
// one bit array. The caller holds w.mu.
func (w *Window) mergeSteps(from int) iter.Seq[uint64] {
	steps := w.epochs[from:]
	for _, s := range steps {
		if s.xor != nil {
			x := make([]uint64, len(w.latest.bits))
			for i := range steps {
				steps[i].xorInto(x)
			}
			return diffFlips(x, nil)
		}
	}
	acc := slices.Collect(frameFlips(steps[0].frame))
	var out []uint64
	for _, s := range steps[1:] {
		out = xorMerge(out[:0], acc, slices.Collect(frameFlips(s.frame)))
		acc, out = out, acc
	}
	return slices.Values(acc)
}

// xorMerge appends to dst the symmetric difference of two ascending,
// duplicate-free position lists.
func xorMerge(dst, a, b []uint64) []uint64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// Pull is one client round of the sync protocol for a holder of held
// (the zero Held: it holds nothing). It presents (epoch, hash) to src
// and applies the answer. A payload the held filter cannot absorb (an
// upstream restart, local corruption) is retried once as a cold
// src(0, nil) — the full-snapshot fallback — so Pull converges
// whenever the upstream serves at all. next.F is nil (and next.Epoch
// the upstream's latest) when the holder is already current; payload is the answer next was built from, and bytes
// counts the payload bytes moved.
//
// A held filter without its hash is hashed here; a held hash is
// trusted, so a current holder computes nothing.
func Pull(src SyncFunc, held Held) (next Held, payload []byte, bytes int, err error) {
	if held.F != nil && held.Hash == nil {
		h := held.F.Hash()
		held.Hash = h[:]
	}
	payload, latest, err := src(held.Epoch, held.Hash)
	if err != nil || len(payload) == 0 {
		return Held{Epoch: latest}, nil, 0, err
	}
	bytes = len(payload)
	// applyUpdate works on a clone: held is untouched if the payload
	// turns out not to apply.
	f, h, err := applyUpdate(held.F, held.Hash, payload)
	if err != nil {
		if payload, latest, err = src(0, nil); err != nil {
			return Held{}, nil, bytes, err
		}
		bytes += len(payload)
		if f, h, err = applyUpdate(nil, nil, payload); err != nil {
			return Held{}, nil, bytes, err
		}
	}
	return Held{Epoch: latest, F: f, Hash: h[:]}, payload, bytes, nil
}

// Pull advances the window one round against src (the package Pull,
// from the newest held epoch) and installs the answer, keeping a delta
// it was sent as the new epoch's step. It reports whether an epoch was
// installed and the payload bytes moved.
func (w *Window) Pull(src SyncFunc) (changed bool, bytes int, err error) {
	held := w.held()
	next, payload, bytes, err := Pull(src, held)
	if err != nil || next.F == nil {
		return false, bytes, err
	}
	var frame []byte
	if !IsSnapshot(payload) {
		frame = payload
	}
	w.put(next, held.F, frame)
	return true, bytes, nil
}
