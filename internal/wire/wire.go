// Package wire defines the HTTP protocol spoken between IRS components:
// owners' claiming software → ledger, browsers/extensions → proxy, and
// proxy/aggregator → ledger.
//
// The protocol is deliberately boring — JSON bodies over plain HTTP
// paths, binary filter payloads with an epoch header — because the
// paper's adoption argument (§1: a technical intervention's "chances of
// adoption are probably higher if it only uses familiar technology")
// applies to the implementation too.
//
// Endpoints served by a ledger (see Server):
//
//	POST /v1/claim         body ClaimRequest   → ClaimResponse
//	POST /v1/op            body OpRequest      → empty
//	GET  /v1/status?id=I   → StatusResponse (with marshaled signed proof)
//	POST /v1/status/batch  body StatusBatchRequest → StatusBatchResponse
//	GET  /v1/seq?id=I      → SeqQueryResponse (for owner-side op signing)
//	GET  /v1/keys          → KeysResponse
//	GET  /v1/filter/sync?from=E&base=H → binary update payload for
//	       bloom.ApplyUpdate (delta or snapshot, whichever is
//	       smaller; empty body when the caller is current),
//	       X-IRS-Epoch header; H is the hex SHA-256 of the held filter.
//	       from=0 with no base is the cold fetch: always a snapshot
//	POST /v1/admin/permanent-revoke  body AdminRevokeRequest → empty
//	       (requires the configured bearer token; used by appeals)
//
// The hot routes (status, status batch, filter sync) also speak the
// IRSW1 binary codec (binwire.go) when a request asks for it. Client
// speaks only IRSW1 on them; the shapes above remain for browsers and
// curl.
//
// The appeals complaint endpoint (POST /v1/appeal) is served by
// appeals.Server and mounted alongside this one by cmd/irs-ledger.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Error is the protocol-level error body.
type Error struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("wire: %d %s", e.Code, e.Message) }

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after WriteHeader cannot be reported to the client;
	// they surface as a truncated body.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes a protocol error.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, &Error{Code: status, Message: msg})
}

// maxBody bounds request and response bodies (filters are served
// separately with their own limit).
const maxBody = 1 << 20

// ReadJSON decodes a request body into v, rejecting oversized or
// malformed input.
func ReadJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("wire: decoding body: %w", err)
	}
	return nil
}

// decodeResponse reads an HTTP response, mapping non-2xx statuses to
// *Error.
//
// The body is drained (bounded) before close: a json.Decoder stops at
// the end of the first value, and closing a keep-alive connection with
// unread bytes forces the transport to discard it instead of returning
// it to the pool — every response with trailing data would pay a fresh
// TCP (and TLS) handshake on the next request.
func decodeResponse(resp *http.Response, v any) error {
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxBody))
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		var e Error
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(&e); err != nil || e.Code == 0 {
			return &Error{Code: resp.StatusCode, Message: resp.Status}
		}
		return &e
	}
	if v == nil {
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(v)
}

// ErrStatus converts an error into its protocol status code, or 0 if it
// is not a wire error.
func ErrStatus(err error) int {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return 0
}

// ClaimRequest registers a photo (paper §3.1 "Claiming").
type ClaimRequest struct {
	// ContentHash is the SHA-256 of the photo, 32 bytes.
	ContentHash []byte `json:"hash"`
	// PubKey is the per-photo Ed25519 public key.
	PubKey []byte `json:"pub"`
	// HashSig is the signature over ledger.ClaimMsg(hash) — the paper's
	// "encrypted hash".
	HashSig []byte `json:"sig"`
	// RevokedAtBirth registers the claim already revoked (§4.4 usage
	// pattern).
	RevokedAtBirth bool `json:"revoked_at_birth,omitempty"`
	// Custodial marks an aggregator claim on an unlabeled upload.
	Custodial bool `json:"custodial,omitempty"`
}

// ClaimResponse returns the issued identifier and timestamp token.
type ClaimResponse struct {
	// ID is the identifier in ids.PhotoID string form.
	ID string `json:"id"`
	// Timestamp is the marshaled tsa.Token.
	Timestamp []byte `json:"ts"`
	// Proof is the marshaled signed ledger.StatusProof of the new claim,
	// what /v1/status answers for ID in the same second. Optional: a
	// ledger that predates it sends none and the caller asks /v1/status;
	// a client that predates it ignores the field.
	Proof []byte `json:"proof,omitempty"`
}

// OpRequest revokes or unrevokes a claim.
type OpRequest struct {
	ID string `json:"id"`
	// Op is 1 (revoke) or 2 (unrevoke), matching ledger.Op.
	Op int `json:"op"`
	// Seq is the operation sequence the signature covers.
	Seq uint64 `json:"seq"`
	// Sig is the signature over ledger.OpMsg(id, op, seq).
	Sig []byte `json:"sig"`
}

// StatusResponse carries a validation answer.
type StatusResponse struct {
	// State is the ledger.State string form.
	State string `json:"state"`
	// Proof is the marshaled signed ledger.StatusProof.
	Proof []byte `json:"proof"`
}

// MaxStatusBatch bounds the identifiers in one StatusBatch request. A
// photo-heavy page runs to dozens of images (the browser model samples
// 40–60); 256 leaves headroom for several pages per round trip while
// keeping worst-case response bodies (~35 KB of proofs) far inside
// maxBody. Servers reject larger batches with 400; clients refuse to
// send them.
const MaxStatusBatch = 256

// CheckBatchSize is the one batch bound clients and servers share: it
// refuses a batch of more than MaxStatusBatch identifiers, so a client
// fails before any bytes move.
func CheckBatchSize(n int) error {
	if n > MaxStatusBatch {
		return fmt.Errorf("wire: batch of %d exceeds limit %d", n, MaxStatusBatch)
	}
	return nil
}

// StatusBatchRequest validates many claims in one round trip — the
// request-fan-in half of the serving path (per-object round trips are
// the cost that kills per-image indirection; see DESIGN.md "Serving
// path").
type StatusBatchRequest struct {
	// IDs are PhotoID string forms, at most MaxStatusBatch of them.
	IDs []string `json:"ids"`
}

// StatusBatchResponse carries one marshaled signed proof per requested
// identifier, in request order.
type StatusBatchResponse struct {
	Proofs [][]byte `json:"proofs"`
}

// KeysResponse publishes the ledger's verification keys.
type KeysResponse struct {
	// LedgerID is the numeric ledger identifier.
	LedgerID uint32 `json:"ledger_id"`
	// SigningKey verifies status proofs.
	SigningKey []byte `json:"signing_key"`
	// TimestampKey verifies claim timestamp tokens.
	TimestampKey []byte `json:"timestamp_key"`
	// NonRevocable reports the §5 human-rights policy mode.
	NonRevocable bool `json:"non_revocable,omitempty"`
}

// AdminRevokeRequest is the appeals process's permanent revocation.
type AdminRevokeRequest struct {
	ID string `json:"id"`
}

// SeqQueryResponse reports the current operation sequence of a claim so
// owners can sign the next op without tracking state locally.
type SeqQueryResponse struct {
	Seq   uint64 `json:"seq"`
	State string `json:"state"`
}
