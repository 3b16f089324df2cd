// Package provenance implements a C2PA-style content-provenance
// manifest chain.
//
// Paper §2 ("Relevant Technologies"): the Coalition for Content
// Provenance and Authenticity defines "open technical standards that
// give publishers, creators, and consumers the ability to trace the
// origin of different types of media; this involves the entire content
// supply chain, starting from origin device ..., to design and newsroom
// edits, all the way to the consumer", via "media metadata primitives
// that can be embedded in media files in a backward-compatible manner".
// The paper notes IRS "shares many technical challenges with C2PA and
// can benefit from the adoption of the C2PA metadata standard".
//
// This package provides the simplified equivalent: a hash-linked chain
// of Ed25519-signed assertions riding in photo metadata. Each assertion
// records an action ("created", "edited", "published", …), the actor's
// public key, the content hash *after* the action, and the hash of the
// previous assertion — so any tampering with history breaks
// verification.
//
// The IRS integration point is the "irs.claim" assertion: when a
// derivative is made, the editor appends an edit assertion while the
// chain retains the original claim reference, realizing §3.2's
// intention that "those making derivative images ... transfer the
// metadata to the modified version so that it is also revoked if the
// original is revoked".
package provenance

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"irs/internal/ids"
	"irs/internal/photo"
)

// Well-known assertion actions.
const (
	// ActionCreated starts every chain: the capture device's assertion.
	ActionCreated = "c2pa.created"
	// ActionEdited records a content transformation.
	ActionEdited = "c2pa.edited"
	// ActionIRSClaim binds an IRS claim identifier into the chain.
	ActionIRSClaim = "irs.claim"
)

// KeyManifest is the photo metadata key carrying the serialized chain.
const KeyManifest = "c2pa.manifest"

// Assertion is one link of the chain.
type Assertion struct {
	// Action is the event type.
	Action string `json:"action"`
	// Actor is the Ed25519 public key of whoever performed it.
	Actor []byte `json:"actor"`
	// Time is the asserted wall-clock time (informational; the signed
	// ordering is the chain itself).
	Time time.Time `json:"time"`
	// ContentHash is the photo's content hash after this action.
	ContentHash []byte `json:"content_hash"`
	// PrevHash is the hash of the previous assertion's canonical form
	// (all zeros for the first link).
	PrevHash []byte `json:"prev_hash"`
	// Fields carries action-specific data (e.g. the claim id for
	// ActionIRSClaim, or an edit description).
	Fields map[string]string `json:"fields,omitempty"`
	// Sig is the actor's signature over the canonical form.
	Sig []byte `json:"sig"`
}

// canonical returns the signed byte form: a stable JSON encoding of the
// assertion with Sig empty.
func (a *Assertion) canonical() ([]byte, error) {
	cp := *a
	cp.Sig = nil
	// encoding/json is deterministic for this shape (struct field order,
	// sorted map keys), so it serves as the canonical form.
	return json.Marshal(&cp)
}

// hash returns the chain-link hash of the assertion (including Sig, so
// re-signing also breaks downstream links).
func (a *Assertion) hash() ([32]byte, error) {
	b, err := json.Marshal(a)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// Chain is an ordered assertion list.
type Chain struct {
	Assertions []*Assertion `json:"assertions"`
}

// Signer holds an actor's keypair.
type Signer struct {
	Pub  ed25519.PublicKey
	Priv ed25519.PrivateKey
}

// appendAssertion signs and links a new assertion.
func (c *Chain) appendAssertion(s Signer, action string, contentHash [32]byte, at time.Time, fields map[string]string) error {
	a := &Assertion{
		Action:      action,
		Actor:       append([]byte(nil), s.Pub...),
		Time:        at.UTC(),
		ContentHash: contentHash[:],
		Fields:      fields,
	}
	if n := len(c.Assertions); n == 0 {
		a.PrevHash = make([]byte, 32)
	} else {
		prev, err := c.Assertions[n-1].hash()
		if err != nil {
			return err
		}
		a.PrevHash = prev[:]
	}
	msg, err := a.canonical()
	if err != nil {
		return err
	}
	a.Sig = ed25519.Sign(s.Priv, msg)
	c.Assertions = append(c.Assertions, a)
	return nil
}

// New starts a chain with the capture assertion.
func New(device Signer, im *photo.Image, at time.Time) (*Chain, error) {
	c := &Chain{}
	if err := c.appendAssertion(device, ActionCreated, im.ContentHash(), at, nil); err != nil {
		return nil, err
	}
	return c, nil
}

// AddIRSClaim binds a claim identifier; the content hash is unchanged
// (claiming does not alter pixels).
func (c *Chain) AddIRSClaim(owner Signer, id ids.PhotoID, im *photo.Image, at time.Time) error {
	return c.appendAssertion(owner, ActionIRSClaim, im.ContentHash(), at,
		map[string]string{"id": id.String()})
}

// AddEdit records a transformation to a new content state.
func (c *Chain) AddEdit(editor Signer, after *photo.Image, description string, at time.Time) error {
	return c.appendAssertion(editor, ActionEdited, after.ContentHash(), at,
		map[string]string{"description": description})
}

// Verification errors.
var (
	ErrEmptyChain   = errors.New("provenance: empty chain")
	ErrBadLink      = errors.New("provenance: hash link broken")
	ErrBadSig       = errors.New("provenance: assertion signature invalid")
	ErrWrongContent = errors.New("provenance: final content hash does not match photo")
	ErrNoCreate     = errors.New("provenance: chain does not start with a created assertion")
)

// Verify checks the whole chain: signatures, hash links, and (when im
// is non-nil) that the final content hash matches the photo presented.
func (c *Chain) Verify(im *photo.Image) error {
	if len(c.Assertions) == 0 {
		return ErrEmptyChain
	}
	if c.Assertions[0].Action != ActionCreated {
		return ErrNoCreate
	}
	var prevHash [32]byte
	for i, a := range c.Assertions {
		if len(a.PrevHash) != 32 {
			return fmt.Errorf("%w: assertion %d prev hash length", ErrBadLink, i)
		}
		var got [32]byte
		copy(got[:], a.PrevHash)
		if got != prevHash {
			return fmt.Errorf("%w: assertion %d", ErrBadLink, i)
		}
		if len(a.Actor) != ed25519.PublicKeySize {
			return fmt.Errorf("%w: assertion %d actor key", ErrBadSig, i)
		}
		msg, err := a.canonical()
		if err != nil {
			return err
		}
		if !ed25519.Verify(ed25519.PublicKey(a.Actor), msg, a.Sig) {
			return fmt.Errorf("%w: assertion %d", ErrBadSig, i)
		}
		prevHash, err = a.hash()
		if err != nil {
			return err
		}
	}
	if im != nil {
		final := c.Assertions[len(c.Assertions)-1].ContentHash
		want := im.ContentHash()
		if len(final) != 32 || want != sliceTo32(final) {
			return ErrWrongContent
		}
	}
	return nil
}

func sliceTo32(b []byte) (out [32]byte) {
	copy(out[:], b)
	return
}

// ClaimID extracts the most recent IRS claim binding, if any.
func (c *Chain) ClaimID() (ids.PhotoID, bool) {
	for i := len(c.Assertions) - 1; i >= 0; i-- {
		a := c.Assertions[i]
		if a.Action != ActionIRSClaim {
			continue
		}
		id, err := ids.Parse(a.Fields["id"])
		if err != nil {
			continue
		}
		return id, true
	}
	return ids.PhotoID{}, false
}

// Embed serializes the chain into the photo's metadata.
func (c *Chain) Embed(im *photo.Image) error {
	b, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("provenance: encoding manifest: %w", err)
	}
	im.Meta.Set(KeyManifest, base64.StdEncoding.EncodeToString(b))
	return nil
}

// Extract reads a chain from photo metadata. ok is false when no
// manifest is present.
func Extract(im *photo.Image) (*Chain, bool, error) {
	raw := im.Meta.Get(KeyManifest)
	if raw == "" {
		return nil, false, nil
	}
	b, err := base64.StdEncoding.DecodeString(raw)
	if err != nil {
		return nil, true, fmt.Errorf("provenance: decoding manifest: %w", err)
	}
	var c Chain
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, true, fmt.Errorf("provenance: parsing manifest: %w", err)
	}
	return &c, true, nil
}
