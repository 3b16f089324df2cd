package aggregator

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"

	"irs/internal/ledger"
	"irs/internal/photo"
)

// claimMaterial is the part of a custodial claim that depends on the
// image alone: a fresh key pair, the content hash, and the key's
// signature over the canonical claim message for that hash.
type claimMaterial struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
	hash [32]byte
	sig  []byte
}

func newClaimMaterial(im *photo.Image) (*claimMaterial, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("aggregator: keygen: %w", err)
	}
	hash := im.ContentHash()
	return &claimMaterial{pub: pub, priv: priv, hash: hash, sig: ed25519.Sign(priv, ledger.ClaimMsg(hash))}, nil
}
