// Album ingest.
//
// Upload processing has two very different halves. The expensive half —
// IRSP decode, watermark extraction, the three-hash perceptual
// signature, a custodial claim's key pair and signature — is a pure
// function of the uploaded bytes and can run for many uploads at once.
// The stateful half — the robust-hash derivative check, custodial
// claiming, and hosting — must observe uploads one at a time in input
// order, or decisions would depend on scheduling (which of two
// derivatives gets hosted and which gets denied is decided by who
// commits first).
//
// Between them sits the ledger status read, the one step whose latency
// the aggregator does not control: it crosses the network, and what it
// costs is the round trip, not the lookup. So an album is ingested in
// three steps, the §3.2 label check, ledger query, and host-or-deny:
//
//  1. prepare runs on every item across the parallel pool;
//  2. fetchStatuses asks each ledger the album's labels name for all
//     of its proofs in one StatusBatch (more only past
//     wire.MaxStatusBatch), the ledgers concurrently;
//  3. commit runs on every item in input order.
//
// The requests an album costs are therefore a function of its content
// alone, and decisions, first-match derivative ties and metrics are
// identical to calling Upload serially on the same sequence, at any
// worker count. (The one observable difference: status reads happen
// before any commit, so against a ledger that is mutating or
// fault-injecting mid-album an item may see a different status-read
// interleaving than the strict serial order would have produced.)
package aggregator

import (
	"context"
	"fmt"
	"sync"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/parallel"
	"irs/internal/phash"
	"irs/internal/photo"
	"irs/internal/provenance"
	"irs/internal/wire"
)

// UploadItem is one album entry: either an already decoded image, or a
// raw IRSP container to decode during ingest (Raw is used only when
// Image is nil). Raw is parsed in place (photo.ParseIRSP) and read
// until UploadAll returns, so it must not be written before then;
// nothing the aggregator keeps refers to it afterwards.
type UploadItem struct {
	Image *photo.Image
	Raw   []byte
}

// StreamResult pairs an upload outcome with the item's input index.
// Err is per-item (a malformed Raw container, or cancellation before
// the item was prepared); it never aborts the album.
type StreamResult struct {
	Index  int
	Result UploadResult
	Err    error
}

// prep carries one upload from prepare to commit.
type prep struct {
	raw []byte
	im  *photo.Image
	err error // decode failure or cancellation; terminal

	metaID, wmID ids.PhotoID
	metaOK, wmOK bool
	provBad      bool
	sig          phash.Signature

	// Ledger status (labeled uploads only), read after prepare.
	wantStatus bool
	proof      *ledger.StatusProof
	statusErr  error

	// The stateless part of a custodial claim (unlabeled uploads under
	// CustodialClaim only).
	claim    *claimMaterial
	claimErr error
}

// prepare runs the stateless half of ingest on one item: decode, label
// extraction, provenance verification, perceptual signature, and for an
// unlabeled upload the key pair and signature of its custodial claim.
// It marks the items that need a ledger status, which the caller then
// fetches. Serial Upload runs it too — including which stages are
// skipped for which deny outcomes — so commit reaches identical
// decisions.
func (a *Aggregator) prepare(p *prep) {
	if p.im == nil {
		im, err := photo.ParseIRSP(p.raw)
		if err != nil {
			p.err = err
			return
		}
		p.im, p.raw = im, nil
	}
	p.metaID, p.wmID, p.metaOK, p.wmOK = a.extractLabel(p.im)
	switch {
	case p.metaOK && p.wmOK && p.metaID != p.wmID:
		return // label mismatch: denied before any heavier work
	case p.metaOK != p.wmOK:
		return // partial label: likewise
	case !p.metaOK && !p.wmOK:
		if a.cfg.Unlabeled == CustodialClaim {
			// The custodial path needs the signature for its own
			// derivative check; the reject path hashes nothing.
			p.sig = phash.NewSignature(p.im)
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
	p.sig = phash.NewSignature(p.im)
	p.wantStatus = true
}

// fetchStatuses fetches the proofs of items: one StatusBatch per ledger
// (more only past wire.MaxStatusBatch), all on the wire at once, and
// returns when every one has answered. A failed batch denies its own
// items as DenyLedgerUnreachable and nobody else's. A hung ledger is
// bounded by the deadline of the Service the directory hands out
// (wire.DefaultTimeout, RetryConfig.AttemptTimeout), not here.
func (a *Aggregator) fetchStatuses(items []*prep) {
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
	var wg sync.WaitGroup
	for _, b := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]ids.PhotoID, len(b))
			for j, p := range b {
				batch[j] = p.metaID
			}
			proofs, err := a.statusBatch(batch)
			for j, p := range b {
				if p.statusErr = err; err == nil {
					p.proof = proofs[j]
				}
			}
		}()
	}
	wg.Wait()
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
// ordered step of ingest.
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

// UploadAll runs the §3.2 pipeline over an album and returns one
// result per item, in input order: every item is prepared across the
// parallel pool, each ledger its labels name answers one StatusBatch,
// and the items commit in input order. An item whose turn to be
// prepared comes after ctx is cancelled carries ctx's error; the items
// prepared before are decided as serial Upload decides them.
func (a *Aggregator) UploadAll(ctx context.Context, items []UploadItem) []StreamResult {
	preps := make([]prep, len(items))
	parallel.Do(len(items), func(i int) {
		p := &preps[i]
		if p.err = ctx.Err(); p.err == nil {
			p.im, p.raw = items[i].Image, items[i].Raw
			a.prepare(p)
		}
	})
	var labeled []*prep
	for i := range preps {
		if preps[i].wantStatus {
			labeled = append(labeled, &preps[i])
		}
	}
	a.fetchStatuses(labeled)
	results := make([]StreamResult, len(items))
	for i := range preps {
		p, r := &preps[i], &results[i]
		r.Index = i
		if r.Err = p.err; r.Err != nil {
			continue
		}
		a.mu.Lock()
		a.metrics.Uploads++
		a.mu.Unlock()
		r.Result, r.Err = a.commit(p)
	}
	return results
}
