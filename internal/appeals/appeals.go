// Package appeals implements the IRS appeals process (§3.2, §5).
//
// The loophole it closes: "another person could claim a copy of the
// photo themselves and therefore try to override any revocation". The
// remedy: "the original owner presents the ledger with the original
// photo and a signed timestamp of the original claim, along with the
// copied version of the photo. The ledger then compares the original
// with the copy, using robust hashing (as in PhotoDNA) and/or human
// inspection. If they believe that the copy is derived from the
// original photo, they then mark it as permanently revoked."
//
// Crucially the decision "does not rely on vague judgements about
// whether the picture is harmful, only whether it is derived from the
// original photo" — the adjudicator verifies exactly three facts:
//
//  1. Evidence: the complainant's timestamp token is authentic and
//     covers the presented original's content hash (so the complainant
//     really claimed this photo at that time);
//  2. Priority: that timestamp precedes the contested claim's;
//  3. Derivation: robust hashing says the contested photo is a variant
//     of the original (with an optional human-review hook for the
//     borderline band).
//
// A parallel site-level path (SiteAdjudicator) handles copies that were
// never claimed: the complaint goes "against the site displaying the
// photo", which takes the photo down and revokes its custodial claim if
// it made one.
package appeals

import (
	"crypto/ed25519"
	"errors"
	"fmt"

	"irs/internal/aggregator"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/phash"
	"irs/internal/photo"
	"irs/internal/tsa"
	"irs/internal/watermark"
	"irs/internal/wire"
)

// Complaint is the original owner's submission.
type Complaint struct {
	// Original is the complainant's photo, exactly as claimed.
	Original *photo.Image
	// OriginalToken is the signed timestamp from the original claim's
	// receipt.
	OriginalToken *tsa.Token
	// OriginalLedger identifies which ledger's timestamp key verifies
	// the token.
	OriginalLedger ids.LedgerID
	// Copy is the contested photo as found in the wild.
	Copy *photo.Image
	// ContestedID is the claim the copy circulates under (zero for
	// site-level appeals against unclaimed photos).
	ContestedID ids.PhotoID
}

// Outcome classifies a verdict.
type Outcome int

const (
	// Upheld: the contested claim was permanently revoked (or the photo
	// taken down, for site appeals).
	Upheld Outcome = iota
	// RejectedBadEvidence: the timestamp token failed verification or
	// does not cover the presented original.
	RejectedBadEvidence
	// RejectedCopyMismatch: the presented copy is not the photo the
	// contested claim covers.
	RejectedCopyMismatch
	// RejectedNotEarlier: the contested claim predates the complainant's
	// timestamp.
	RejectedNotEarlier
	// RejectedNotDerived: robust hashing (and human review, when
	// configured) found the photos unrelated.
	RejectedNotDerived
	// RejectedPolicy: the contested claim's ledger refuses appeals (the
	// §5 non-revocable policy).
	RejectedPolicy
	// RejectedNoSuchClaim: the contested identifier is unknown.
	RejectedNoSuchClaim
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Upheld:
		return "upheld"
	case RejectedBadEvidence:
		return "rejected-bad-evidence"
	case RejectedCopyMismatch:
		return "rejected-copy-mismatch"
	case RejectedNotEarlier:
		return "rejected-not-earlier"
	case RejectedNotDerived:
		return "rejected-not-derived"
	case RejectedPolicy:
		return "rejected-policy"
	case RejectedNoSuchClaim:
		return "rejected-no-such-claim"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Verdict is the adjudication result.
type Verdict struct {
	Outcome Outcome
	// Similarity is the robust-hash similarity between original and
	// copy, recorded for every verdict that got far enough to compare.
	Similarity float64
	// Detail is a human-readable explanation.
	Detail string
}

// ReviewFunc is the human-inspection hook: called for borderline hash
// similarity, returns true when the reviewer judges the copy derived.
type ReviewFunc func(original, copy *photo.Image) bool

// Adjudicator handles appeals against claims on one ledger.
type Adjudicator struct {
	// ledger is the ledger the contested claims live on.
	ledger *ledger.Ledger
	// tsaKeys maps ledger IDs to trusted timestamp-authority keys; the
	// complainant's claim may live on a different ledger than the
	// contested one.
	tsaKeys map[ids.LedgerID]ed25519.PublicKey
	// review is the optional human-inspection hook.
	review ReviewFunc
}

// NewAdjudicator creates an adjudicator for the given ledger. Trusted
// TSA keys are registered with TrustLedger.
func NewAdjudicator(l *ledger.Ledger, review ReviewFunc) *Adjudicator {
	a := &Adjudicator{
		ledger:  l,
		tsaKeys: make(map[ids.LedgerID]ed25519.PublicKey),
		review:  review,
	}
	// A ledger always trusts its own timestamps.
	a.tsaKeys[l.ID()] = l.TimestampKey()
	return a
}

// TrustLedger registers another ledger's timestamp key so complainants
// with claims there can be heard.
func (a *Adjudicator) TrustLedger(id ids.LedgerID, tsaKey ed25519.PublicKey) {
	a.tsaKeys[id] = tsaKey
}

// Similarity thresholds: at or above matchBar the photos are judged
// derived outright; below reviewBar they are judged unrelated outright;
// between the two, the human-review hook decides (absent a hook, the
// borderline rejects — the automated system must not revoke on weak
// evidence).
const (
	matchBar  = 0.85
	reviewBar = 0.70
)

// verifyEvidence checks the complaint's token and returns the
// complainant's claim time evidence.
func (a *Adjudicator) verifyEvidence(c *Complaint) error {
	key, ok := a.tsaKeys[c.OriginalLedger]
	if !ok {
		return fmt.Errorf("no trusted timestamp key for ledger %d", c.OriginalLedger)
	}
	if c.OriginalToken == nil {
		return errors.New("no timestamp token presented")
	}
	if err := tsa.Verify(key, c.OriginalToken); err != nil {
		return err
	}
	if c.OriginalToken.Digest != c.Original.ContentHash() {
		return errors.New("timestamp token does not cover the presented original")
	}
	return nil
}

// classifySimilarity maps a similarity score to (derived, borderline):
// borderline means the human-review hook decides.
func classifySimilarity(sim float64) (derived, borderline bool) {
	switch {
	case sim >= matchBar:
		return true, false
	case sim < reviewBar:
		return false, false
	default:
		return false, true
	}
}

// copyCarriesLabel checks whether either label half of the copy names
// the contested claim.
func (a *Adjudicator) copyCarriesLabel(copy *photo.Image, contested ids.PhotoID) bool {
	if s := copy.Meta.Get(photo.KeyIRSID); s != "" {
		if id, err := ids.Parse(s); err == nil && id == contested {
			return true
		}
	}
	if res, err := watermark.ExtractAligned(copy, watermark.DefaultConfig()); err == nil && ids.FromBytes(res.Payload) == contested {
		return true
	}
	if res, err := watermark.Extract(copy, watermark.DefaultConfig()); err == nil && ids.FromBytes(res.Payload) == contested {
		return true
	}
	return false
}

// judgeDerived runs the robust-hash comparison and review hook.
func (a *Adjudicator) judgeDerived(c *Complaint) (bool, float64) {
	so := phash.NewSignature(c.Original)
	sc := phash.NewSignature(c.Copy)
	sim := so.Similarity(sc)
	derived, borderline := classifySimilarity(sim)
	if borderline && a.review != nil {
		return a.review(c.Original, c.Copy), sim
	}
	return derived, sim
}

// Decide adjudicates a complaint against a claim on this ledger,
// permanently revoking the contested claim when the appeal is upheld.
func (a *Adjudicator) Decide(c *Complaint) (Verdict, error) {
	if err := a.verifyEvidence(c); err != nil {
		return Verdict{Outcome: RejectedBadEvidence, Detail: err.Error()}, nil
	}
	rec, err := a.ledger.Record(c.ContestedID)
	if err != nil {
		if errors.Is(err, ledger.ErrNotFound) {
			return Verdict{Outcome: RejectedNoSuchClaim, Detail: "contested claim unknown"}, nil
		}
		return Verdict{}, err
	}
	// The presented copy must actually circulate under the contested
	// claim — otherwise a complainant could frame an unrelated claim.
	// Claims cover pre-label pixels (the camera hashes before it
	// watermarks, §3.2), so the tie is the copy's label: at least one
	// half must carry the contested identifier.
	if !a.copyCarriesLabel(c.Copy, c.ContestedID) {
		return Verdict{Outcome: RejectedCopyMismatch,
			Detail: "presented copy does not carry the contested claim's label"}, nil
	}
	if !tsa.Earlier(c.OriginalToken, rec.Timestamp) {
		return Verdict{Outcome: RejectedNotEarlier,
			Detail: "contested claim predates the complainant's timestamp"}, nil
	}
	derived, sim := a.judgeDerived(c)
	if !derived {
		return Verdict{Outcome: RejectedNotDerived, Similarity: sim,
			Detail: fmt.Sprintf("robust-hash similarity %.3f below the derivation bar", sim)}, nil
	}
	if err := a.ledger.PermanentRevoke(c.ContestedID); err != nil {
		if errors.Is(err, ledger.ErrNonRevocable) {
			return Verdict{Outcome: RejectedPolicy, Similarity: sim,
				Detail: "ledger policy refuses appeals"}, nil
		}
		return Verdict{}, err
	}
	return Verdict{Outcome: Upheld, Similarity: sim,
		Detail: "copy derived from original; contested claim permanently revoked"}, nil
}

// SiteAdjudicator handles the other §3.2 branch: complaints against a
// site displaying an (unclaimed or custodially claimed) copy.
type SiteAdjudicator struct {
	agg     *aggregator.Aggregator
	tsaKeys map[ids.LedgerID]ed25519.PublicKey
	// custodial routes revocations of the site's own custodial claims.
	custodial wire.Service
	review    ReviewFunc
}

// NewSiteAdjudicator creates the site-side appeals handler. custodial
// may be nil when the site never claims custodially.
func NewSiteAdjudicator(agg *aggregator.Aggregator, custodial wire.Service, review ReviewFunc) *SiteAdjudicator {
	return &SiteAdjudicator{
		agg:       agg,
		tsaKeys:   make(map[ids.LedgerID]ed25519.PublicKey),
		custodial: custodial,
		review:    review,
	}
}

// TrustLedger registers a timestamp key for complainant evidence.
func (s *SiteAdjudicator) TrustLedger(id ids.LedgerID, tsaKey ed25519.PublicKey) {
	s.tsaKeys[id] = tsaKey
}

// Decide adjudicates a complaint against a hosted photo, taking it down
// (and revoking any custodial claim) when upheld. c.ContestedID names
// the hosted photo.
func (s *SiteAdjudicator) Decide(c *Complaint) (Verdict, error) {
	ad := &Adjudicator{tsaKeys: s.tsaKeys, review: s.review}
	if err := ad.verifyEvidence(c); err != nil {
		return Verdict{Outcome: RejectedBadEvidence, Detail: err.Error()}, nil
	}
	hostedImg, ok := s.agg.Hosted(c.ContestedID)
	if !ok {
		return Verdict{Outcome: RejectedNoSuchClaim, Detail: "photo not hosted"}, nil
	}
	// Compare against what the site actually hosts, not what the
	// complainant hands us.
	cc := &Complaint{Original: c.Original, Copy: hostedImg}
	derived, sim := ad.judgeDerived(cc)
	if !derived {
		return Verdict{Outcome: RejectedNotDerived, Similarity: sim,
			Detail: fmt.Sprintf("robust-hash similarity %.3f below the derivation bar", sim)}, nil
	}
	s.agg.TakeDown(c.ContestedID)
	// Revoke the custodial claim so other sites holding the same label
	// also stop serving it.
	if owned, ok := s.agg.CustodialKeys().Get(c.ContestedID); ok && s.custodial != nil {
		seq, err := s.custodial.Seq(owned.ID)
		if err == nil {
			sig := ed25519.Sign(owned.PrivKey, ledger.OpMsg(owned.ID, ledger.OpRevoke, seq+1))
			_ = s.custodial.Apply(owned.ID, ledger.OpRevoke, seq+1, sig)
		}
	}
	return Verdict{Outcome: Upheld, Similarity: sim,
		Detail: "hosted copy derived from original; taken down"}, nil
}
