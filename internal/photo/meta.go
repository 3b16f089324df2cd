package photo

import "sort"

// Well-known metadata keys. The IRS label (paper §3.1 "Labeling") is the
// pair of fields carrying the claim identifier and the issuing ledger's
// base URL; everything else models ordinary EXIF-style fields that sites
// routinely strip.
const (
	// KeyIRSID holds the photo's claim identifier in ids.PhotoID string
	// form. This is the "explicit metadata" half of the label; the
	// watermark is the other half.
	KeyIRSID = "irs.id"
	// KeyIRSLedgerURL holds the base URL of the ledger that issued the
	// claim, so validators can route status checks without a directory.
	KeyIRSLedgerURL = "irs.ledger"
	// KeyIRSProof holds the aggregator's signed recent-validation proof
	// (paper §3.2: responses include "cryptographic proof that it has
	// recently verified the non-revoked status").
	KeyIRSProof = "irs.proof"
)

// Metadata is an EXIF-like string key/value container attached to an
// image. The zero value is not usable; call NewMetadata.
type Metadata struct {
	kv map[string]string
}

// NewMetadata returns an empty metadata container.
func NewMetadata() Metadata { return Metadata{kv: map[string]string{}} }

// Clone returns a deep copy.
func (m Metadata) Clone() Metadata {
	out := NewMetadata()
	for k, v := range m.kv {
		out.kv[k] = v
	}
	return out
}

// Get returns the value for key, or "" if absent.
func (m Metadata) Get(key string) string { return m.kv[key] }

// Has reports whether key is present.
func (m Metadata) Has(key string) bool { _, ok := m.kv[key]; return ok }

// Set assigns key = value. Empty keys are ignored.
func (m Metadata) Set(key, value string) {
	if key == "" {
		return
	}
	m.kv[key] = value
}

// Keys returns all keys in sorted order.
func (m Metadata) Keys() []string {
	keys := make([]string, 0, len(m.kv))
	for k := range m.kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// StripAll removes every entry — what a non-IRS site does on upload.
func (m Metadata) StripAll() {
	for k := range m.kv {
		delete(m.kv, k)
	}
}

// HasIRSLabel reports whether both label fields are present.
func (m Metadata) HasIRSLabel() bool {
	return m.Has(KeyIRSID) && m.Has(KeyIRSLedgerURL)
}
