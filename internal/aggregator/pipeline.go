// Streaming upload pipeline.
//
// Upload processing has two very different halves. The expensive half —
// IRSP decode, watermark extraction, the three-hash perceptual
// signature, a custodial claim's key pair and signature, the read-only
// ledger status fetch — is a pure function of the uploaded bytes and
// can run for many uploads concurrently. The stateful half — the
// robust-hash derivative check, custodial claiming, and hosting — must
// observe uploads one at a time in arrival order, or decisions would
// depend on scheduling (which of two derivatives gets hosted and which
// gets denied is decided by who commits first).
//
// UploadStream therefore runs a bounded stage graph:
//
//	feeder → [W compute workers] → status batcher → ordered committer
//
// The status fetch is the one stage whose latency the aggregator does
// not control: it crosses the network to a ledger, and what it costs is
// the round trip, not the lookup. So it is neither done per item nor
// inside the compute workers. One batcher cuts the input into windows
// of consecutive indices, waits until every item of a window has been
// prepared, and asks each ledger named in it for all of that window's
// proofs in one StatusBatch. UploadAll knows its album and makes it one
// window: k labeled items on one ledger cost one request. UploadStream
// cannot know where its input ends and uses Depth, so what it holds
// stays bounded; the price is that a labeled item's result waits for
// its window to fill or the input to close. Windows depend on input
// indices alone, never on arrival timing, so the number of requests a
// run makes is a function of its input. Items that need no status pass
// the batcher untouched. A batch that fails, or misses StatusTimeout,
// denies its own items as DenyLedgerUnreachable and nobody else's.
//
// Every channel is bounded, so a slow committer backpressures the
// workers and a slow consumer backpressures the feeder; while a batch
// is on the wire the workers prepare the next window into the channel
// behind the batcher and stall only past that. Memory in flight is
// O(workers + depth) regardless of stream length. The committer
// reorders by input index before touching shared state, so accept/deny
// decisions, first-match derivative ties, and metrics are
// byte-identical to calling Upload serially on the same sequence — at
// any worker count. (The one observable difference: ledger status reads
// are prefetched, so against a ledger that is mutating or
// fault-injecting mid-stream, an item may see a different status-read
// interleaving than the strict serial order would have produced.)
package aggregator

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/phash"
	"irs/internal/photo"
	"irs/internal/provenance"
	"irs/internal/wire"
)

// UploadItem is one unit of streaming upload work: either an already
// decoded image, or a raw IRSP container to decode inside the pipeline
// (Raw is used only when Image is nil). Raw is parsed in place
// (photo.ParseIRSP) and the pipeline reads it until the item's result
// is out, so it must not be written before then; nothing the pipeline
// keeps refers to it afterwards.
type UploadItem struct {
	Image *photo.Image
	Raw   []byte
}

// StreamResult pairs an upload outcome with the item's input index.
// Err is per-item (a malformed Raw container, or cancellation before
// the item was processed); it never aborts the stream.
type StreamResult struct {
	Index  int
	Result UploadResult
	Err    error
}

// PipelineConfig parameterizes UploadStream.
type PipelineConfig struct {
	// Workers is the number of concurrent compute workers; <= 0 means
	// GOMAXPROCS.
	Workers int
	// Depth is the per-stage channel capacity and, for UploadStream, the
	// status window: that many consecutive items share one StatusBatch
	// per ledger. <= 0 means 2×Workers.
	Depth int
	// StatusTimeout is the per-batch deadline; every item of a status
	// batch that misses it commits as DenyLedgerUnreachable. <= 0 means
	// no deadline. Transient loss is wire.RetryClient's to absorb,
	// beneath the directory's Service: StatusBatch is idempotent.
	StatusTimeout time.Duration
	// Obs, when non-nil, interns the irs_upload_* pipeline series
	// (per-stage latency histograms and queue-depth gauges) there.
	Obs *obs.Registry
}

// ErrSkipped marks items the stream never processed (cancelled before
// they entered the pipeline).
var ErrSkipped = errors.New("aggregator: upload skipped")

// prep carries one upload through the pipeline stages.
type prep struct {
	idx int
	raw []byte
	im  *photo.Image
	err error // decode failure; terminal

	metaID, wmID ids.PhotoID
	metaOK, wmOK bool
	provBad      bool
	sigDone      bool
	sig          phash.Signature

	// Prefetched read-only ledger status (labeled uploads only).
	wantStatus bool
	proof      *ledger.StatusProof
	statusErr  error

	// The stateless part of a custodial claim (unlabeled uploads under
	// CustodialClaim only).
	claim    *claimMaterial
	claimErr error
}

// pipeline stage identifiers, indexing pipeObs.stages.
type pipeStage int

const (
	stageDecode pipeStage = iota
	stageLabel
	stageHash
	stageStatus
	stageCommit
	numStages
)

// pipeQueue identifiers, indexing pipeObs.depths.
type pipeQueue int

const (
	queueWork pipeQueue = iota
	queueDone
	numQueues
)

// pipeObs holds the pre-interned pipeline instruments; every method is
// a no-op on the nil receiver, so instrumentation costs nothing when
// unset.
type pipeObs struct {
	stages            [numStages]*obs.Histogram
	depths            [numQueues]*obs.Gauge
	items, itemErrors *obs.Counter
	// batchIDs is the identifiers per status request; the status stage
	// histogram times one such request.
	batchIDs *obs.Histogram
}

func newPipeObs(reg *obs.Registry) *pipeObs {
	if reg == nil {
		return nil
	}
	o := &pipeObs{
		items:      reg.Counter("irs_upload_stream_items_total"),
		itemErrors: reg.Counter("irs_upload_stream_item_errors_total"),
		batchIDs:   reg.Histogram("irs_upload_status_batch_ids", statusBatchBuckets),
	}
	for s, name := range [numStages]string{"decode", "label", "hash", "status", "commit"} {
		o.stages[s] = reg.Histogram("irs_upload_stage_seconds", nil, obs.L("stage", name))
	}
	for q, name := range [numQueues]string{"work", "done"} {
		o.depths[q] = reg.Gauge("irs_upload_queue_depth", obs.L("queue", name))
	}
	return o
}

func (o *pipeObs) observe(s pipeStage, start time.Time) {
	if o == nil {
		return
	}
	o.stages[s].Observe(time.Since(start).Seconds())
}

// observeBatch records one status request of n identifiers.
func (o *pipeObs) observeBatch(n int, start time.Time) {
	if o == nil {
		return
	}
	o.observe(stageStatus, start)
	o.batchIDs.Observe(float64(n))
}

func (o *pipeObs) depth(q pipeQueue, n int) {
	if o == nil {
		return
	}
	o.depths[q].Set(int64(n))
}

// prepare runs the stateless half of the upload pipeline on one item:
// decode, label extraction, provenance verification, perceptual
// signature, and for an unlabeled upload the key pair and signature of
// its custodial claim. It marks the items that need a ledger status,
// which the caller then fetches. Serial Upload runs it too — including
// which stages are skipped for which deny outcomes — so commit reaches
// identical decisions.
func (a *Aggregator) prepare(p *prep, po *pipeObs) {
	if p.im == nil {
		start := time.Now()
		im, err := photo.ParseIRSP(p.raw)
		po.observe(stageDecode, start)
		if err != nil {
			p.err = err
			return
		}
		p.im, p.raw = im, nil
	}
	start := time.Now()
	p.metaID, p.wmID, p.metaOK, p.wmOK = a.extractLabel(p.im)
	po.observe(stageLabel, start)
	switch {
	case p.metaOK && p.wmOK && p.metaID != p.wmID:
		return // label mismatch: denied before any heavier work
	case p.metaOK != p.wmOK:
		return // partial label: likewise
	case !p.metaOK && !p.wmOK:
		if a.cfg.Unlabeled == CustodialClaim {
			// The custodial path needs the signature for its own
			// derivative check; the reject path hashes nothing.
			start = time.Now()
			p.sig = phash.NewSignature(p.im)
			p.sigDone = true
			po.observe(stageHash, start)
			p.claim, p.claimErr = newClaimMaterial(p.im)
		}
		return
	}
	// Consistent label: provenance gate, then signature, then the
	// status fetch the caller owes.
	if chain, present, perr := provenance.Extract(p.im); present {
		if perr != nil || chain.Verify(p.im) != nil {
			p.provBad = true
			return
		}
		if chainID, ok := chain.ClaimID(); ok && chainID != p.metaID {
			p.provBad = true
			return
		}
	}
	start = time.Now()
	p.sig = phash.NewSignature(p.im)
	p.sigDone = true
	po.observe(stageHash, start)
	p.wantStatus = true
}

// ErrStatusTimeout marks the items of a status batch that missed its
// deadline; the committer maps it to DenyLedgerUnreachable.
var ErrStatusTimeout = errors.New("aggregator: ledger status fetch timed out")

// statusBatchBuckets are the bounds of irs_upload_status_batch_ids:
// identifiers in one status request, up to wire.MaxStatusBatch.
var statusBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, wire.MaxStatusBatch}

// fetchStatuses fetches the proofs of one window's labeled items: one
// StatusBatch per ledger (more only past wire.MaxStatusBatch), all
// issued at once and all bounded by timeout when one is set. The
// Service call has no cancellation surface, so a call that misses the
// deadline is abandoned to finish on its own goroutine — its answer
// goes into a buffered channel nobody then reads — while its items
// commit promptly as DenyLedgerUnreachable.
func (a *Aggregator) fetchStatuses(items []*prep, timeout time.Duration, po *pipeObs) {
	if len(items) == 0 {
		return
	}
	var batches [][]*prep
	filling := make(map[ids.LedgerID]int, 1) // ledger → its batch with room
	for _, p := range items {
		lid := p.metaID.Ledger
		i, ok := filling[lid]
		if !ok || len(batches[i]) == wire.MaxStatusBatch {
			i = len(batches)
			batches = append(batches, nil)
			filling[lid] = i
		}
		batches[i] = append(batches[i], p)
	}

	type answer struct {
		batch  int
		proofs []*ledger.StatusProof
		err    error
	}
	start := time.Now()
	// One slot per send, so an abandoned call's send completes.
	answers := make(chan answer, len(batches))
	for i, b := range batches {
		batch := make([]ids.PhotoID, len(b))
		for j, p := range b {
			batch[j] = p.metaID
		}
		go func() {
			proofs, err := a.statusBatch(batch)
			answers <- answer{i, proofs, err}
		}()
	}
	var deadline <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		deadline = timer.C
	}
	settle := func(i int, proofs []*ledger.StatusProof, err error) {
		for j, p := range batches[i] {
			if p.statusErr = err; err == nil {
				p.proof = proofs[j]
			}
		}
		po.observeBatch(len(batches[i]), start)
		batches[i] = nil
	}
	for left := len(batches); left > 0; left-- {
		select {
		case r := <-answers:
			settle(r.batch, r.proofs, r.err)
		case <-deadline:
			for i, b := range batches {
				if b != nil {
					settle(i, nil, ErrStatusTimeout)
				}
			}
			return
		}
	}
}

// statusBatch asks the ledger that issued batch's identifiers — all of
// them one ledger's — for their proofs, one per identifier in order.
func (a *Aggregator) statusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	svc, err := a.dir.ForLedger(batch[0].Ledger)
	if err != nil {
		return nil, err
	}
	proofs, err := svc.StatusBatch(batch)
	if err != nil {
		return nil, err
	}
	if len(proofs) != len(batch) {
		return nil, fmt.Errorf("aggregator: ledger returned %d proofs for %d ids", len(proofs), len(batch))
	}
	return proofs, nil
}

// commit runs the stateful half: the decision switch, the derivative
// check against the hash database, custodial claiming, and hosting.
// Callers must serialize commits in input order — this is the single
// ordered stage of the pipeline.
func (a *Aggregator) commit(p *prep) (UploadResult, error) {
	switch {
	case p.metaOK && p.wmOK && p.metaID != p.wmID:
		return a.deny(DenyLabelMismatch), nil
	case p.metaOK != p.wmOK:
		return a.deny(DenyPartialLabel), nil
	case !p.metaOK && !p.wmOK:
		return a.commitUnlabeled(p)
	}
	if p.provBad {
		return a.deny(DenyBadProvenance), nil
	}
	id := p.metaID
	// Derivative check against the robust-hash database.
	if prior, found := a.lookupHash(p.sig); found && prior != id {
		return a.deny(DenyDerivativeRelabeled), nil
	}
	if p.statusErr != nil {
		return a.deny(DenyLedgerUnreachable), nil
	}
	switch p.proof.State {
	case ledger.StateActive:
	case ledger.StateUnknown:
		return a.deny(DenyUnknownClaim), nil
	default:
		return a.deny(DenyRevoked), nil
	}
	// p.im is the caller's image or, parsed from Raw, a view into the
	// caller's bytes: either may be written once this returns, so the
	// hosted photo is a copy.
	a.host(id, p.im.Clone(), p.proof, false, p.sig)
	return UploadResult{Accepted: true, ID: id}, nil
}

// commitUnlabeled is the §3.2 unlabeled branch: reject, or claim
// custodially after the derivative check.
func (a *Aggregator) commitUnlabeled(p *prep) (UploadResult, error) {
	if a.cfg.Unlabeled == RejectUnlabeled {
		return a.deny(DenyUnlabeled), nil
	}
	if _, found := a.lookupHash(p.sig); found {
		// A derivative of hosted content arriving label-free: require
		// the original metadata instead of custodially double-claiming.
		return a.deny(DenyDerivativeRelabeled), nil
	}
	owned, labeled, err := a.custodialClaim(p)
	if err != nil {
		return a.deny(DenyLedgerUnreachable), nil
	}
	proof := owned.Receipt.Proof
	if proof == nil {
		// A ledger that predates the proof in the claim answer: ask.
		if proof, err = a.cfg.CustodialLedger.Status(owned.ID); err != nil {
			return a.deny(DenyLedgerUnreachable), nil
		}
	}
	// labeled is the copy camera.Label just made; hosting keeps it.
	a.host(owned.ID, labeled, proof, true, phash.NewSignature(labeled))
	return UploadResult{Accepted: true, ID: owned.ID, Custodial: true}, nil
}

// UploadStream runs the §3.2 pipeline over a stream of uploads and
// returns a channel of per-item results in input-index order. The
// caller must drain the returned channel; it closes after the last
// result. Cancelling ctx stops admitting new items — items already in
// flight drain normally, and UploadAll reports unprocessed items with
// a non-nil Err.
//
// Labeled items share status requests in windows of cfg.Depth
// consecutive items, so a labeled item's result is emitted once its
// window has filled or in has closed: a producer must not wait for the
// result of an item before sending the rest of that item's window.
func (a *Aggregator) UploadStream(ctx context.Context, in <-chan UploadItem, cfg PipelineConfig) <-chan StreamResult {
	return a.uploadStream(ctx, in, cfg, 0)
}

// uploadStream is UploadStream with the status window given; window
// <= 0 means the stage depth.
func (a *Aggregator) uploadStream(ctx context.Context, in <-chan UploadItem, cfg PipelineConfig, window int) <-chan StreamResult {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.Depth
	if depth <= 0 {
		depth = 2 * workers
	}
	if window <= 0 {
		window = depth
	}
	po := newPipeObs(cfg.Obs)

	work := make(chan *prep, depth)
	prepared := make(chan *prep, depth)
	done := make(chan *prep, depth)
	out := make(chan StreamResult, depth)

	// Feeder: tag items with their arrival index and admit them under
	// backpressure until the input closes or ctx cancels.
	go func() {
		defer close(work)
		idx := 0
		for {
			var item UploadItem
			var ok bool
			select {
			case <-ctx.Done():
				return
			case item, ok = <-in:
				if !ok {
					return
				}
			}
			p := &prep{idx: idx, im: item.Image, raw: item.Raw}
			idx++
			select {
			case <-ctx.Done():
				return
			case work <- p:
				po.depth(queueWork, len(work))
			}
		}
	}()

	// Compute workers: the stateless CPU-bound stages, concurrently.
	var wgCompute sync.WaitGroup
	for w := 0; w < workers; w++ {
		wgCompute.Add(1)
		go func() {
			defer wgCompute.Done()
			for p := range work {
				a.prepare(p, po)
				prepared <- p
			}
		}()
	}
	go func() {
		wgCompute.Wait()
		close(prepared)
	}()

	// Status batcher: holds each window's labeled items until the whole
	// window has been prepared, fetches their proofs in one request per
	// ledger, and hands them on. Items that need no status (deny-before-
	// status, unlabeled, decode errors) count towards their window and
	// pass straight through. Delivery to the committer is unconditional
	// — the committer drains done until it closes, so the sends always
	// complete.
	go func() {
		defer close(done)
		type statusWindow struct {
			seen    int     // items of the window prepared so far
			waiting []*prep // those of them that want a status
		}
		forward := func(p *prep) {
			done <- p
			po.depth(queueDone, len(done))
		}
		flush := func(w *statusWindow) {
			a.fetchStatuses(w.waiting, cfg.StatusTimeout, po)
			for _, p := range w.waiting {
				forward(p)
			}
		}
		windows := make(map[int]*statusWindow)
		for p := range prepared {
			k := p.idx / window
			w := windows[k]
			if w == nil {
				w = new(statusWindow)
				windows[k] = w
			}
			w.seen++
			if p.wantStatus {
				w.waiting = append(w.waiting, p)
			} else {
				forward(p)
			}
			if w.seen == window {
				delete(windows, k)
				flush(w)
			}
		}
		// The feeder admits indices in order, so when the input closes
		// or ctx cancels inside a window, that last window is the only
		// one left here.
		for _, w := range windows {
			flush(w)
		}
	}()

	// Ordered committer: reorder by index, then run the stateful stage
	// and emit. The buffer is bounded by the stage capacities plus the
	// worker counts: once the channels and every worker are holding
	// out-of-order items, the workers stall until the missing index
	// arrives.
	go func() {
		defer close(out)
		pending := make(map[int]*prep)
		next := 0
		emit := func(p *prep) {
			if p.err != nil {
				po.bumpErr()
				out <- StreamResult{Index: p.idx, Err: p.err}
				return
			}
			a.mu.Lock()
			a.metrics.Uploads++
			a.mu.Unlock()
			start := time.Now()
			res, err := a.commit(p)
			po.observe(stageCommit, start)
			po.bumpItem()
			out <- StreamResult{Index: p.idx, Result: res, Err: err}
		}
		for p := range done {
			pending[p.idx] = p
			for {
				q, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				emit(q)
			}
		}
		// The feeder may have dropped indices on cancellation; flush
		// whatever completed, still in ascending index order.
		for len(pending) > 0 {
			for next <= maxIdx(pending) {
				if q, ok := pending[next]; ok {
					delete(pending, next)
					emit(q)
				}
				next++
			}
		}
	}()
	return out
}

func maxIdx(m map[int]*prep) int {
	max := -1
	for i := range m {
		if i > max {
			max = i
		}
	}
	return max
}

func (o *pipeObs) bumpItem() {
	if o != nil {
		o.items.Inc()
	}
}

func (o *pipeObs) bumpErr() {
	if o != nil {
		o.itemErrors.Inc()
	}
}

// UploadAll pushes a batch through the streaming pipeline as one status
// window — one StatusBatch per ledger its labels name, however many
// items carry them — and returns one result per item, in input order.
// Items the pipeline never processed (ctx cancelled first) carry ctx's
// error, or ErrSkipped as a fallback.
func (a *Aggregator) UploadAll(ctx context.Context, items []UploadItem, cfg PipelineConfig) []StreamResult {
	in := make(chan UploadItem)
	go func() {
		defer close(in)
		for _, it := range items {
			select {
			case <-ctx.Done():
				return
			case in <- it:
			}
		}
	}()
	results := make([]StreamResult, len(items))
	seen := make([]bool, len(items))
	for r := range a.uploadStream(ctx, in, cfg, len(items)) {
		if r.Index >= 0 && r.Index < len(results) {
			results[r.Index] = r
			seen[r.Index] = true
		}
	}
	for i := range results {
		if !seen[i] {
			err := ctx.Err()
			if err == nil {
				err = ErrSkipped
			}
			results[i] = StreamResult{Index: i, Err: err}
		}
	}
	return results
}
