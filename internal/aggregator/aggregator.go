// Package aggregator implements an IRS-supporting content aggregator —
// the social-media-site role in the paper's eventual solution (§3.2).
//
// The upload pipeline follows the paper exactly:
//
//   - "the aggregator inspects the metadata and watermark. If they
//     agree, the site then checks with the ledger (using the
//     identifier); if the image has been revoked, the upload is denied."
//   - "If the explicit metadata or watermark disagree or one of them is
//     missing ..., the upload is also denied."
//   - "If a photo has neither a watermark or metadata indicating it has
//     been claimed, the aggregator can either reject the photo or claim
//     it (and watermark it) in a custodial role so that it can later be
//     revoked."
//   - "Aggregators could also keep a database of robust hashes of their
//     current content and check all newly uploaded photos against this
//     database to ensure that they use the original metadata (so that
//     revoking the original will also remove images derived from it)."
//
// Hosted photos are periodically revalidated ("thereafter periodically
// rechecks the revocation status") and served with a signed freshness
// proof in their metadata ("includes in metadata cryptographic proof
// that it has recently verified the non-revoked status").
package aggregator

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"irs/internal/camera"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/parallel"
	"irs/internal/phash"
	"irs/internal/photo"
	"irs/internal/watermark"
	"irs/internal/wire"
)

// UnlabeledPolicy selects the §3.2 choice for unlabeled uploads.
type UnlabeledPolicy int

const (
	// RejectUnlabeled denies uploads with no IRS label.
	RejectUnlabeled UnlabeledPolicy = iota
	// CustodialClaim claims and watermarks unlabeled uploads on the
	// aggregator's own ledger.
	CustodialClaim
)

// DenyReason explains a rejected upload.
type DenyReason int

const (
	// DenyNone means the upload was accepted.
	DenyNone DenyReason = iota
	// DenyRevoked means the ledger reports the photo revoked.
	DenyRevoked
	// DenyUnknownClaim means the label names a claim the ledger has no
	// record of (a fabricated label).
	DenyUnknownClaim
	// DenyLabelMismatch means metadata and watermark carry different
	// identifiers.
	DenyLabelMismatch
	// DenyPartialLabel means exactly one of metadata/watermark is
	// present — the signature of a tampered label.
	DenyPartialLabel
	// DenyUnlabeled means no label at all under RejectUnlabeled policy.
	DenyUnlabeled
	// DenyDerivativeRelabeled means the robust-hash database matched an
	// already-hosted photo claimed under a different identifier: a
	// derivative that did not carry over the original metadata.
	DenyDerivativeRelabeled
	// DenyLedgerUnreachable means validation could not complete; the
	// paper's default-deny posture applies.
	DenyLedgerUnreachable
	// DenyBadProvenance means the upload carried a C2PA-style manifest
	// that fails verification or contradicts the IRS label — the
	// signature of provenance forgery.
	DenyBadProvenance
)

// String implements fmt.Stringer.
func (d DenyReason) String() string {
	switch d {
	case DenyNone:
		return "accepted"
	case DenyRevoked:
		return "revoked"
	case DenyUnknownClaim:
		return "unknown-claim"
	case DenyLabelMismatch:
		return "label-mismatch"
	case DenyPartialLabel:
		return "partial-label"
	case DenyUnlabeled:
		return "unlabeled"
	case DenyDerivativeRelabeled:
		return "derivative-relabeled"
	case DenyLedgerUnreachable:
		return "ledger-unreachable"
	case DenyBadProvenance:
		return "bad-provenance"
	default:
		return fmt.Sprintf("deny(%d)", int(d))
	}
}

// UploadResult reports the pipeline outcome.
type UploadResult struct {
	Accepted bool
	Reason   DenyReason
	// ID is the identifier the photo is hosted under (the label's claim,
	// or the fresh custodial claim).
	ID ids.PhotoID
	// Custodial reports that the aggregator claimed the photo itself.
	Custodial bool
}

// Config parameterizes an aggregator.
type Config struct {
	// Name identifies the site in logs and experiments.
	Name string
	// Unlabeled selects the unlabeled-upload policy.
	Unlabeled UnlabeledPolicy
	// RecheckInterval is how often hosted photos are revalidated, and
	// the oldest freshness proof Serve hands out; zero means 1 hour.
	RecheckInterval time.Duration
	// Clock supplies time; nil means time.Now.
	Clock func() time.Time
	// CustodialLedger receives custodial claims (required when Unlabeled
	// is CustodialClaim).
	CustodialLedger wire.Service
	// CustodialLedgerURL labels custodial claims.
	CustodialLedgerURL string
	// Index parameterizes the robust-hash database, including its
	// optional observability registry (IndexConfig.Obs).
	Index IndexConfig
}

type hosted struct {
	id  ids.PhotoID
	img *photo.Image
	// video is set instead of a meaningful img for video uploads (img
	// then holds the poster frame).
	video     *photo.Video
	proof     *ledger.StatusProof
	checkedAt time.Time
	custodial bool
	sig       phash.Signature
}

// Metrics counts pipeline outcomes.
type Metrics struct {
	Uploads   uint64
	Accepted  uint64
	Denied    map[DenyReason]uint64
	Rechecks  uint64
	TakenDown uint64
}

// Aggregator hosts photos under IRS rules. Safe for concurrent use.
type Aggregator struct {
	cfg   Config
	dir   *wire.Directory
	clock func() time.Time

	mu      sync.RWMutex
	photos  map[ids.PhotoID]*hosted
	keys    *camera.KeyStore
	metrics Metrics

	// hashIdx is the robust-hash database behind the derivative defense.
	// It has its own copy-on-write concurrency (see index.go): lookups
	// are lock-free and never hold a.mu, so the hot upload path cannot
	// stall hosting writes or metrics updates.
	hashIdx *SigIndex
}

// New creates an aggregator validating against the given ledger
// directory.
func New(cfg Config, dir *wire.Directory) (*Aggregator, error) {
	if cfg.Unlabeled == CustodialClaim && cfg.CustodialLedger == nil {
		return nil, errors.New("aggregator: custodial policy requires a custodial ledger")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.RecheckInterval == 0 {
		cfg.RecheckInterval = time.Hour
	}
	return &Aggregator{
		cfg:     cfg,
		dir:     dir,
		clock:   cfg.Clock,
		photos:  make(map[ids.PhotoID]*hosted),
		keys:    camera.NewKeyStore(""),
		hashIdx: NewSigIndex(cfg.Index),
		metrics: Metrics{
			Denied: make(map[DenyReason]uint64),
		},
	}, nil
}

// fullSearchPixelBudget bounds the images eligible for the full
// geometric watermark search (64 pixel phases × 160 codeword phases).
// The search is linear in pixels (one row and one column pass, about 16
// multiply-adds a pixel), but a hostile album of multi-megapixel
// uploads would still buy up to a core-second per image at no cost to
// the sender. Larger images get the cheap aligned pass only — which
// covers every unmodified upload; a cropped giant panorama falls back
// to the deny path (partial label) rather than a compute sink.
const fullSearchPixelBudget = 512 * 512

// extractLabel reads both label halves, preferring the cheap aligned
// watermark pass and falling back to the full geometric search — over
// the same luma plane — for images within the compute budget.
func (a *Aggregator) extractLabel(im *photo.Image) (metaID, wmID ids.PhotoID, metaOK, wmOK bool) {
	if s := im.Meta.Get(photo.KeyIRSID); s != "" {
		if id, err := ids.Parse(s); err == nil {
			metaID, metaOK = id, true
		}
	}
	extract := watermark.ExtractAligned
	if im.W*im.H <= fullSearchPixelBudget {
		extract = watermark.ExtractFallback
	}
	if res, err := extract(im, watermark.DefaultConfig()); err == nil {
		wmID, wmOK = ids.FromBytes(res.Payload), true
	}
	return
}

func (a *Aggregator) deny(reason DenyReason) UploadResult {
	a.mu.Lock()
	a.metrics.Denied[reason]++
	a.mu.Unlock()
	return UploadResult{Accepted: false, Reason: reason}
}

// Upload runs the §3.2 pipeline on an uploaded image: the stateless
// prepare half (label extraction, provenance check — see the paper
// note below — signature), the status read, and the stateful commit
// half. UploadAll runs the same three steps over an album, prepare
// fanned out across the parallel pool and one StatusBatch per ledger,
// so single and album uploads share one decision path.
//
// A provenance manifest, when present, must verify and must agree with
// the label (§2: IRS "can benefit from the adoption of the C2PA
// metadata standard" — and a forged manifest is disqualifying).
func (a *Aggregator) Upload(im *photo.Image) (UploadResult, error) {
	a.mu.Lock()
	a.metrics.Uploads++
	a.mu.Unlock()
	p := prep{im: im}
	a.prepare(&p)
	if p.wantStatus {
		if svc, err := a.dir.For(p.metaID); err != nil {
			p.statusErr = err
		} else {
			p.proof, p.statusErr = svc.Status(p.metaID)
		}
	}
	return a.commit(&p)
}

// custodialClaim registers the claim prepare made the material for,
// labels the image with the identifier it is given and stores the key.
func (a *Aggregator) custodialClaim(p *prep) (*camera.Owned, *photo.Image, error) {
	if p.claimErr != nil {
		return nil, nil, p.claimErr
	}
	cm := p.claim
	receipt, err := a.cfg.CustodialLedger.Claim(&wire.ClaimRequest{
		ContentHash: cm.hash[:],
		PubKey:      cm.pub,
		HashSig:     cm.sig,
		Custodial:   true,
	})
	if err != nil {
		return nil, nil, err
	}
	labeled, err := camera.Label(p.im, receipt.ID, a.cfg.CustodialLedgerURL, watermark.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	owned := &camera.Owned{
		ID:          receipt.ID,
		ContentHash: cm.hash,
		PubKey:      cm.pub,
		PrivKey:     cm.priv,
		Receipt:     receipt,
		LedgerURL:   a.cfg.CustodialLedgerURL,
	}
	if err := a.keys.Put(owned); err != nil {
		return nil, nil, err
	}
	return owned, labeled, nil
}

// host stores im under id and indexes its signature. It takes ownership
// of im: the serving paths hand out clones, so nobody else may hold a
// reference that could write through it afterwards.
func (a *Aggregator) host(id ids.PhotoID, im *photo.Image, proof *ledger.StatusProof, custodial bool, sig phash.Signature) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.metrics.Accepted++
	a.photos[id] = &hosted{
		id:        id,
		img:       im,
		proof:     proof,
		checkedAt: a.clock(),
		custodial: custodial,
		sig:       sig,
	}
	a.hashIdx.Add(sig, id)
}

// lookupHash resolves a perceptual signature to the earliest-hosted
// matching photo. Insertion order decides which hosted photo a
// derivative resolves to; the index preserves that tie-break exactly
// (see index.go).
func (a *Aggregator) lookupHash(sig phash.Signature) (ids.PhotoID, bool) {
	return a.hashIdx.Lookup(sig)
}

// UploadVideo runs the pipeline on a video (paper §2: the approach
// extends to "other digital media (such as personal videos)"). The
// label is the container metadata plus the cross-frame watermark vote;
// hosting stores the first frame's perceptual signature for the
// derivative defense. Videos follow the same deny taxonomy as photos.
func (a *Aggregator) UploadVideo(v *photo.Video) (UploadResult, error) {
	a.mu.Lock()
	a.metrics.Uploads++
	a.mu.Unlock()

	var metaID, wmID ids.PhotoID
	var metaOK, wmOK bool
	if s := v.Meta.Get(photo.KeyIRSID); s != "" {
		if id, err := ids.Parse(s); err == nil {
			metaID, metaOK = id, true
		}
	}
	if res, err := watermark.ExtractVideo(v, watermark.DefaultConfig()); err == nil {
		wmID, wmOK = ids.FromBytes(res.Payload), true
	}
	switch {
	case metaOK && wmOK && metaID != wmID:
		return a.deny(DenyLabelMismatch), nil
	case metaOK != wmOK:
		return a.deny(DenyPartialLabel), nil
	case !metaOK && !wmOK:
		// Custodial claiming of videos is not implemented; unlabeled
		// video uploads are rejected under either policy.
		return a.deny(DenyUnlabeled), nil
	}
	id := metaID
	svc, err := a.dir.For(id)
	if err != nil {
		return a.deny(DenyLedgerUnreachable), nil
	}
	proof, err := svc.Status(id)
	if err != nil {
		return a.deny(DenyLedgerUnreachable), nil
	}
	switch proof.State {
	case ledger.StateActive:
	case ledger.StateUnknown:
		return a.deny(DenyUnknownClaim), nil
	default:
		return a.deny(DenyRevoked), nil
	}
	// Host the video's poster frame record for revalidation tracking;
	// the full clip is stored alongside. Every frame's perceptual
	// signature enters the hash index (batch-hashed across the worker
	// pool), so a still lifted from any frame — not just the poster —
	// resolves to this claim in the derivative check.
	sigs := phash.SignatureAll(v.Frames)
	pids := make([]ids.PhotoID, len(sigs))
	for i := range pids {
		pids[i] = id
	}
	a.mu.Lock()
	a.metrics.Accepted++
	a.photos[id] = &hosted{
		id:        id,
		img:       v.Frames[0].Clone(),
		video:     v.Clone(),
		proof:     proof,
		checkedAt: a.clock(),
		sig:       sigs[0],
	}
	a.hashIdx.AddAll(sigs, pids)
	a.mu.Unlock()
	return UploadResult{Accepted: true, ID: id}, nil
}

// snapshotHosted copies one hosted entry out under the read lock.
// Entries are mutated in place by applyRecheck (proof, checkedAt), so
// the serving paths must not hold a *hosted across an unlock — the
// adversarial hammer's revalidate-vs-serve interleaving catches exactly
// that torn read.
func (a *Aggregator) snapshotHosted(id ids.PhotoID) (hosted, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	h, ok := a.photos[id]
	if !ok {
		return hosted{}, false
	}
	return *h, true
}

// ServeVideo returns a hosted video with the freshness proof in its
// container metadata, revalidating stale proofs like Serve.
func (a *Aggregator) ServeVideo(id ids.PhotoID) (*photo.Video, error) {
	h, ok := a.snapshotHosted(id)
	if !ok || h.video == nil {
		return nil, ErrNotHosted
	}
	if a.clock().Sub(h.checkedAt) > a.cfg.RecheckInterval {
		if err := a.revalidate(id); err != nil {
			return nil, err
		}
		if h, ok = a.snapshotHosted(id); !ok {
			return nil, ErrTakenDown
		}
	}
	out := h.video.Clone()
	out.Meta.Set(photo.KeyIRSProof, string(h.proof.Marshal()))
	return out, nil
}

// Serve errors.
var (
	ErrNotHosted = errors.New("aggregator: photo not hosted")
	ErrTakenDown = errors.New("aggregator: photo has been revoked")
)

// Serve returns a copy of a hosted photo with the freshness proof
// attached in metadata. If the held proof is older than RecheckInterval
// the photo is revalidated inline before serving.
func (a *Aggregator) Serve(id ids.PhotoID) (*photo.Image, error) {
	h, ok := a.snapshotHosted(id)
	if !ok {
		return nil, ErrNotHosted
	}
	if a.clock().Sub(h.checkedAt) > a.cfg.RecheckInterval {
		if err := a.revalidate(id); err != nil {
			return nil, err
		}
		if h, ok = a.snapshotHosted(id); !ok {
			return nil, ErrTakenDown
		}
	}
	out := h.img.Clone()
	out.Meta.Set(photo.KeyIRSProof, string(h.proof.Marshal()))
	return out, nil
}

// revalidate re-queries one photo's status, taking it down when revoked.
func (a *Aggregator) revalidate(id ids.PhotoID) error {
	svc, err := a.dir.For(id)
	if err != nil {
		return err
	}
	proof, err := svc.Status(id)
	if err != nil {
		return err
	}
	a.applyRecheck(id, proof)
	return nil
}

// applyRecheck installs one recheck result: refresh the proof when the
// claim is still active, take the photo down otherwise. Takedowns also
// drop the photo's hash-DB entries — a removed photo must stop
// resolving derivative lookups, or its identifier keeps denying
// re-uploads of its derivatives forever. It reports whether this call
// took the photo down.
func (a *Aggregator) applyRecheck(id ids.PhotoID, proof *ledger.StatusProof) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.metrics.Rechecks++
	h, ok := a.photos[id]
	if !ok {
		return false
	}
	if proof.State != ledger.StateActive {
		delete(a.photos, id)
		a.hashIdx.Remove(id)
		a.metrics.TakenDown++
		return true
	}
	h.proof = proof
	h.checkedAt = a.clock()
	return false
}

// RecheckAll revalidates every hosted photo — the periodic pass §3.2
// prescribes. Returns how many photos the pass itself took down: a
// TakeDown or a Serve revalidation landing meanwhile is not counted.
//
// Identifiers are grouped per ledger into StatusBatch requests of at
// most wire.MaxStatusBatch and fanned out across the worker pool, so a
// full pass over n photos costs ⌈n/256⌉ round trips instead of n. The
// observable semantics match the old per-photo loop: every photo is
// rechecked even when some ledgers fail, results apply in a
// deterministic order, and the returned error is the first by batch
// order (batches are sorted by identifier, so the error choice does
// not depend on worker count or map iteration order — the old loop's
// firstErr varied with map order; sorted batch order is the one
// deterministic refinement).
func (a *Aggregator) RecheckAll() (takenDown int, err error) {
	a.mu.RLock()
	idsToCheck := make([]ids.PhotoID, 0, len(a.photos))
	for id := range a.photos {
		idsToCheck = append(idsToCheck, id)
	}
	a.mu.RUnlock()
	sort.Slice(idsToCheck, func(i, j int) bool {
		bi, bj := idsToCheck[i].Bytes(), idsToCheck[j].Bytes()
		return bytes.Compare(bi[:], bj[:]) < 0
	})
	// The identifier's byte form is ledger-major, so sorting has already
	// grouped each ledger's photos into one contiguous run.
	var batches [][]ids.PhotoID
	for start := 0; start < len(idsToCheck); {
		lid := idsToCheck[start].Ledger
		end := start
		for end < len(idsToCheck) && idsToCheck[end].Ledger == lid && end-start < wire.MaxStatusBatch {
			end++
		}
		batches = append(batches, idsToCheck[start:end])
		start = end
	}
	proofs, firstErr := parallel.MapErr(batches, func(_ int, b []ids.PhotoID) ([]*ledger.StatusProof, error) {
		return a.statusBatch(b)
	})
	for bi, batchProofs := range proofs {
		for pi, proof := range batchProofs {
			if proof != nil && a.applyRecheck(batches[bi][pi], proof) {
				takenDown++
			}
		}
	}
	return takenDown, firstErr
}

// Hosted returns a metadata-free clone of a hosted photo's pixels, for
// appeals-time hash comparison, without triggering revalidation.
func (a *Aggregator) Hosted(id ids.PhotoID) (*photo.Image, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	h, ok := a.photos[id]
	if !ok {
		return nil, false
	}
	return h.img.Clone(), true
}

// TakeDown removes a hosted photo — the outcome of a successful
// site-level appeal (§3.2: a complaint "against the site displaying the
// photo"). Returns false if the photo was not hosted.
func (a *Aggregator) TakeDown(id ids.PhotoID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.photos[id]; !ok {
		return false
	}
	delete(a.photos, id)
	// Drop the hash-DB entries too: a taken-down photo must stop
	// resolving derivative lookups to its (now dead) identifier.
	a.hashIdx.Remove(id)
	a.metrics.TakenDown++
	return true
}

// Hosts reports whether id is currently hosted.
func (a *Aggregator) Hosts(id ids.PhotoID) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	_, ok := a.photos[id]
	return ok
}

// HostedCount returns the number of hosted photos.
func (a *Aggregator) HostedCount() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.photos)
}

// CustodialKeys exposes the custodial key store (the appeals process
// needs it to revoke custodial claims after adjudication).
func (a *Aggregator) CustodialKeys() *camera.KeyStore { return a.keys }

// MetricsSnapshot returns a copy of the counters.
func (a *Aggregator) MetricsSnapshot() Metrics {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := a.metrics
	out.Denied = make(map[DenyReason]uint64, len(a.metrics.Denied))
	for k, v := range a.metrics.Denied {
		out.Denied[k] = v
	}
	return out
}
