// Package camera implements the owner side of IRS: the "recording
// camera (along with associated software)" of §3.1 and the claiming
// workflow of §3.2 — "the camera (or owner-controlled software)
// generates a unique key pair for the photo, hashes the photo, and then
// encrypts the hash with the private key", claims it with a ledger,
// stores the receipt, and labels the photo with both metadata and a
// robust watermark.
//
// The package also implements the §5 countermeasure against misbehaving
// ledgers: "the automated software that claims photos on behalf of
// owners could periodically send probes to ledgers to ensure that they
// are being answered correctly" (Audit).
package camera

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/photo"
	"irs/internal/provenance"
	"irs/internal/tsa"
	"irs/internal/watermark"
	"irs/internal/wire"
)

// Owned is everything the owner must retain about a claimed photo
// (§3.2: "The owner safely stores the original photo, the private key,
// and the identifier"). The original photo itself is stored by reference
// (its content hash); the key store holds the rest.
type Owned struct {
	ID          ids.PhotoID
	ContentHash [32]byte
	PubKey      ed25519.PublicKey
	PrivKey     ed25519.PrivateKey
	// Receipt holds the ledger's authenticated claim timestamp, the
	// owner's evidence in a future appeal.
	Receipt ledger.Receipt
	// LedgerURL routes future operations.
	LedgerURL string
}

// Camera is the owner-controlled claiming software. Safe for concurrent
// use.
type Camera struct {
	svc       wire.Service
	ledgerURL string
	store     *KeyStore
	// AutoRevoke claims photos already revoked (§4.4: "many photos will
	// be automatically registered and revoked"), so nothing becomes
	// viewable until the owner opts in.
	AutoRevoke bool
	// Device, when set, makes the camera attach a C2PA-style provenance
	// manifest to every labeled photo: a created assertion signed by the
	// device key, the IRS claim binding, and the labeling edit (§2,
	// "Relevant Technologies").
	Device *provenance.Signer
}

// New creates a camera claiming against svc. ledgerURL is recorded in
// labels so validators can route; store may be nil for an ephemeral
// in-memory store.
func New(svc wire.Service, ledgerURL string, store *KeyStore) *Camera {
	if store == nil {
		store = NewKeyStore("")
	}
	return &Camera{svc: svc, ledgerURL: ledgerURL, store: store}
}

// Store exposes the camera's key store.
func (c *Camera) Store() *KeyStore { return c.store }

// Shoot produces a synthetic photograph, standing in for the sensor.
func (c *Camera) Shoot(seed int64, w, h int) *photo.Image {
	im := photo.Synth(seed, w, h)
	im.Meta.Set("camera.model", "irs-synthcam/1")
	return im
}

// ClaimAndLabel claims the photo and returns a labeled copy: metadata
// fields set and the identifier embedded as a watermark. The original is
// not modified. The Owned record is persisted in the key store.
func (c *Camera) ClaimAndLabel(im *photo.Image) (*photo.Image, *Owned, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("camera: keygen: %w", err)
	}
	hash := im.ContentHash()
	receipt, err := c.svc.Claim(&wire.ClaimRequest{
		ContentHash:    hash[:],
		PubKey:         pub,
		HashSig:        ed25519.Sign(priv, ledger.ClaimMsg(hash)),
		RevokedAtBirth: c.AutoRevoke,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("camera: claiming: %w", err)
	}
	owned := &Owned{
		ID:          receipt.ID,
		ContentHash: hash,
		PubKey:      pub,
		PrivKey:     priv,
		Receipt:     receipt,
		LedgerURL:   c.ledgerURL,
	}
	if err := c.store.Put(owned); err != nil {
		return nil, nil, err
	}
	labeled, err := Label(im, receipt.ID, c.ledgerURL, watermark.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	if c.Device != nil {
		now := time.Now()
		chain, err := provenance.New(*c.Device, im, now)
		if err != nil {
			return nil, nil, fmt.Errorf("camera: provenance: %w", err)
		}
		ownerSigner := provenance.Signer{Pub: pub, Priv: priv}
		if err := chain.AddIRSClaim(ownerSigner, receipt.ID, im, now); err != nil {
			return nil, nil, fmt.Errorf("camera: provenance claim: %w", err)
		}
		// Labeling changes pixels (the watermark), so it is an edit in
		// provenance terms.
		if err := chain.AddEdit(ownerSigner, labeled, "irs.label", now); err != nil {
			return nil, nil, fmt.Errorf("camera: provenance label edit: %w", err)
		}
		if err := chain.Embed(labeled); err != nil {
			return nil, nil, err
		}
	}
	return labeled, owned, nil
}

// Label attaches both halves of the IRS label to a copy of im: explicit
// metadata and the pixel watermark (§3.2: "labels the photo with two
// forms of metadata that both encode the identifier").
func Label(im *photo.Image, id ids.PhotoID, ledgerURL string, cfg watermark.Config) (*photo.Image, error) {
	wm, err := watermark.Embed(im, id.Bytes(), cfg)
	if err != nil {
		return nil, fmt.Errorf("camera: watermarking: %w", err)
	}
	wm.Meta.Set(photo.KeyIRSID, id.String())
	wm.Meta.Set(photo.KeyIRSLedgerURL, ledgerURL)
	return wm, nil
}

// ErrNotOwned is returned for operations on photos the store doesn't
// hold keys for.
var ErrNotOwned = errors.New("camera: no key material for this photo")

// Revoke revokes one of the owner's photos.
func (c *Camera) Revoke(id ids.PhotoID) error { return c.apply(id, ledger.OpRevoke) }

// Unrevoke re-activates one of the owner's photos.
func (c *Camera) Unrevoke(id ids.PhotoID) error { return c.apply(id, ledger.OpUnrevoke) }

func (c *Camera) apply(id ids.PhotoID, op ledger.Op) error {
	owned, ok := c.store.Get(id)
	if !ok {
		return ErrNotOwned
	}
	seq, err := c.svc.Seq(id)
	if err != nil {
		return fmt.Errorf("camera: fetching op sequence: %w", err)
	}
	sig := ed25519.Sign(owned.PrivKey, ledger.OpMsg(id, op, seq+1))
	if err := c.svc.Apply(id, op, seq+1, sig); err != nil {
		return fmt.Errorf("camera: applying op: %w", err)
	}
	return nil
}

// AuditReport is the outcome of a ledger probe (§5, "Malicious
// Ledgers?").
type AuditReport struct {
	// Healthy is true when every probe phase saw the expected state.
	Healthy bool
	// Failures lists the phases whose answers were wrong.
	Failures []string
}

// Audit claims a canary photo, toggles its revocation state, and checks
// the ledger reports each transition truthfully. The canary is left
// revoked so it can never be displayed.
func (c *Camera) Audit(seed int64) (AuditReport, error) {
	var rep AuditReport
	im := photo.Synth(seed, 192, 128)
	labeled, owned, err := c.ClaimAndLabel(im)
	if err != nil {
		return rep, err
	}
	_ = labeled
	expect := func(phase string, want ledger.State) {
		p, err := c.svc.Status(owned.ID)
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", phase, err))
			return
		}
		if p.State != want {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: got %v, want %v", phase, p.State, want))
		}
	}
	if c.AutoRevoke {
		expect("after-claim", ledger.StateRevoked)
		if err := c.Unrevoke(owned.ID); err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("unrevoke: %v", err))
		}
		expect("after-unrevoke", ledger.StateActive)
	} else {
		expect("after-claim", ledger.StateActive)
	}
	if err := c.Revoke(owned.ID); err != nil {
		rep.Failures = append(rep.Failures, fmt.Sprintf("revoke: %v", err))
	}
	expect("after-revoke", ledger.StateRevoked)
	rep.Healthy = len(rep.Failures) == 0
	return rep, nil
}

// KeyStore persists Owned records. With a path it writes a JSON file
// after every mutation; with an empty path it is memory-only.
type KeyStore struct {
	mu    sync.Mutex
	path  string
	owned map[ids.PhotoID]*Owned
}

// NewKeyStore opens (or initializes) a store at path; "" means
// in-memory.
func NewKeyStore(path string) *KeyStore {
	return &KeyStore{path: path, owned: make(map[ids.PhotoID]*Owned)}
}

// LoadKeyStore reads a previously saved store.
func LoadKeyStore(path string) (*KeyStore, error) {
	ks := NewKeyStore(path)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return ks, nil
		}
		return nil, fmt.Errorf("camera: reading key store: %w", err)
	}
	var entries []storedOwned
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("camera: parsing key store: %w", err)
	}
	for _, e := range entries {
		o, err := e.toOwned()
		if err != nil {
			return nil, err
		}
		ks.owned[o.ID] = o
	}
	return ks, nil
}

type storedOwned struct {
	ID        string `json:"id"`
	Hash      []byte `json:"hash"`
	Pub       []byte `json:"pub"`
	Priv      []byte `json:"priv"`
	Timestamp []byte `json:"ts"`
	LedgerURL string `json:"ledger_url"`
}

func (s storedOwned) toOwned() (*Owned, error) {
	id, err := ids.Parse(s.ID)
	if err != nil {
		return nil, err
	}
	o := &Owned{
		ID:        id,
		PubKey:    ed25519.PublicKey(s.Pub),
		PrivKey:   ed25519.PrivateKey(s.Priv),
		LedgerURL: s.LedgerURL,
	}
	copy(o.ContentHash[:], s.Hash)
	o.Receipt.ID = id
	if len(s.Timestamp) > 0 {
		tok, err := tsa.Unmarshal(s.Timestamp)
		if err != nil {
			return nil, err
		}
		o.Receipt.Timestamp = tok
	}
	return o, nil
}

// Put stores an Owned record and persists if file-backed.
func (k *KeyStore) Put(o *Owned) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.owned[o.ID] = o
	return k.saveLocked()
}

// Get fetches a record.
func (k *KeyStore) Get(id ids.PhotoID) (*Owned, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	o, ok := k.owned[id]
	return o, ok
}

// List returns all owned photo identifiers.
func (k *KeyStore) List() []ids.PhotoID {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]ids.PhotoID, 0, len(k.owned))
	for id := range k.owned {
		out = append(out, id)
	}
	return out
}

func (k *KeyStore) saveLocked() error {
	if k.path == "" {
		return nil
	}
	entries := make([]storedOwned, 0, len(k.owned))
	for _, o := range k.owned {
		e := storedOwned{
			ID:        o.ID.String(),
			Hash:      o.ContentHash[:],
			Pub:       o.PubKey,
			Priv:      o.PrivKey,
			LedgerURL: o.LedgerURL,
		}
		if o.Receipt.Timestamp != nil {
			e.Timestamp = o.Receipt.Timestamp.Marshal()
		}
		entries = append(entries, e)
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return fmt.Errorf("camera: encoding key store: %w", err)
	}
	tmp := k.path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(k.path), 0o755); err != nil {
		return fmt.Errorf("camera: creating key store dir: %w", err)
	}
	// Private keys: owner-only permissions.
	if err := os.WriteFile(tmp, data, 0o600); err != nil {
		return fmt.Errorf("camera: writing key store: %w", err)
	}
	if err := os.Rename(tmp, k.path); err != nil {
		return fmt.Errorf("camera: replacing key store: %w", err)
	}
	return nil
}
