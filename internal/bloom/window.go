package bloom

import (
	"encoding/binary"
	"errors"
	"iter"
	"slices"
	"sync"
	"sync/atomic"
)

// Numbered filter epochs (§4.4's hourly updates). Every holder of a
// revocation filter — the ledger that publishes it, each tier that
// relays it, the proxy and the browser layer that probe it — is a
// Window and speaks one sync protocol: the caller presents the epoch it
// holds and the hash of the bits it actually has, and gets back the
// Update payload (or nothing) that brings it to the latest epoch.
// Window.Sync is the serving half, Window.Pull the client half. Both sit
// beside Update/ApplyUpdate so the install, serve and pull rules exist
// once.
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
// Window.Sync or anything that forwards to one (a ledger, a proxy, a
// wire client).
type SyncFunc func(from uint64, baseHash []byte) (payload []byte, latest uint64, err error)

// held is what a holder of one epoch keeps: its number, its filter
// (shared, never mutated) and the filter's hash, nil only when f is.
// The zero held holds nothing.
type held struct {
	epoch uint64
	f     *Filter
	hash  []byte
}

// Window retains the newest epochs of a filter in increasing epoch
// order, up to a history bound, so callers a few epochs behind still
// get deltas. Safe for concurrent use; installed filters are shared and
// must not be mutated.
//
// Installs are serialized, and Pull installs an answer only onto the
// epoch it presented: when another install lands during its round
// trip, that install stands. So a held epoch never steps back behind a
// slower, older answer, whatever the upstream.
type Window struct {
	mu      sync.RWMutex
	epochs  []windowEpoch
	latest  atomic.Pointer[Filter] // the newest epoch's filter, set in push
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

// RelayHistory is the epochs a holder that relays a filter keeps — a
// tier, a proxy, a browser layer: enough that a downstream lagging
// several sync intervals still gets deltas.
const RelayHistory = 8

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
	w.mu.Lock()
	defer w.mu.Unlock()
	w.put(held{epoch: epoch, f: f, hash: h[:]}, nil)
}

// put installs next. A delta frame that takes the newest epoch to next
// is kept as the step; otherwise the step is diffed here. The caller
// holds w.mu.
func (w *Window) put(next held, frame []byte) {
	keep := len(w.epochs)
	for keep > 0 && w.epochs[keep-1].epoch >= next.epoch {
		keep--
	}
	e := windowEpoch{epoch: next.epoch, n: next.f.n, hash: next.hash}
	switch prev := w.latest.Load(); {
	case keep == 0 || prev.m != next.f.m || prev.k != next.f.k:
		// Nothing retained can reach next by a delta: Update answers a
		// base of other parameters with a snapshot, and so does a
		// window that keeps none.
		keep = 0
	case frame != nil && keep == len(w.epochs) &&
		len(frame) < snapshotLen(len(next.f.bits)) && string(frame[34:66]) == string(w.epochs[keep-1].hash):
		e.frame = withPrevN(frame, w.epochs[keep-1].n)
	default:
		// Diff against the newest filter, then undo the steps of the
		// entries this install drops: x = bits(entry keep-1) ^ bits(next).
		x := make([]uint64, len(next.f.bits))
		for i := range x {
			x[i] = prev.bits[i] ^ next.f.bits[i]
		}
		for _, d := range w.epochs[keep:] {
			d.xorInto(x)
		}
		p := w.epochs[keep-1]
		ends := deltaEnds{m: next.f.m, k: next.f.k, prevN: p.n, nextN: e.n, prevHash: p.hash, nextHash: e.hash}
		if e.frame = ends.frame(len(x), diffFlips(x, nil)); e.frame == nil {
			e.xor = x
		}
	}
	w.push(keep, e, next.f)
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
	w.latest.Store(f)
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
	prev := w.latest.Load()
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
	if w.latest.Load() != prev {
		return errors.New("bloom: window changed during advance")
	}
	w.push(len(w.epochs), e, next)
	return nil
}

// Filter returns the newest epoch's filter (shared, do not mutate), or
// nil before the first install. It takes no lock: a probe on the
// serving path costs one atomic load.
func (w *Window) Filter() *Filter { return w.latest.Load() }

// Latest returns the newest epoch and its filter (shared, do not
// mutate), or ok=false before the first Install.
func (w *Window) Latest() (epoch uint64, f *Filter, ok bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	h := w.newest()
	return h.epoch, h.f, h.f != nil
}

// newest returns the newest epoch, or the zero held before the first
// install. The caller holds w.mu.
func (w *Window) newest() held {
	if len(w.epochs) == 0 {
		return held{}
	}
	e := &w.epochs[len(w.epochs)-1]
	return held{epoch: e.epoch, f: w.latest.Load(), hash: e.hash}
}

// RetainedBytes is the memory the window's history holds: the newest
// filter's bit array plus every older epoch's hash and step.
func (w *Window) RetainedBytes() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	latest := w.latest.Load()
	if latest == nil {
		return 0
	}
	total := 8 * len(latest.bits)
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
	latest, f := w.epochs[last].epoch, w.latest.Load()
	switch {
	case base == last:
		return nil, latest, nil
	case base < 0:
		return f.Marshal(), latest, nil
	case base == last-1 && w.epochs[last].frame != nil:
		return w.epochs[last].frame, latest, nil
	case base == last-1:
		return f.Marshal(), latest, nil
	}
	b, e := &w.epochs[base], &w.epochs[last]
	ends := deltaEnds{m: f.m, k: f.k, prevN: b.n, nextN: e.n, prevHash: b.hash, nextHash: e.hash}
	if payload = ends.frame(len(f.bits), w.mergeSteps(base+1)); payload == nil {
		payload = f.Marshal()
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
			x := make([]uint64, len(w.latest.Load().bits))
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

// Pull is the client half of the sync protocol: one round against src
// from the newest held epoch (epoch 0 and no hash when the window holds
// nothing). It presents the epoch and its stored hash, applies the
// answer and installs it, keeping a delta it was sent as the new
// epoch's step. A payload the held filter cannot absorb (an upstream
// restart, local corruption) is retried once as a cold src(0, nil) —
// the full-snapshot fallback — so Pull converges whenever the upstream
// serves at all. It reports whether it installed an epoch and the
// payload bytes moved; a current holder hashes and allocates nothing.
// An answer that arrives after another install landed is dropped: that
// install stands, and the next round starts from it.
func (w *Window) Pull(src SyncFunc) (changed bool, bytes int, err error) {
	w.mu.RLock()
	h := w.newest()
	w.mu.RUnlock()
	payload, latest, err := src(h.epoch, h.hash)
	if err != nil || len(payload) == 0 {
		return false, 0, err
	}
	bytes = len(payload)
	// applyUpdate works on a clone: the held filter is untouched if the
	// payload turns out not to apply.
	f, sum, err := applyUpdate(h.f, h.hash, payload)
	if err != nil {
		if payload, latest, err = src(0, nil); err != nil {
			return false, bytes, err
		}
		bytes += len(payload)
		if f, sum, err = applyUpdate(nil, nil, payload); err != nil {
			return false, bytes, err
		}
	}
	var frame []byte
	if !IsSnapshot(payload) {
		frame = payload
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if cur := w.newest(); cur.epoch != h.epoch || cur.f != h.f {
		return false, bytes, nil
	}
	w.put(held{epoch: latest, f: f, hash: sum[:]}, frame)
	return true, bytes, nil
}
