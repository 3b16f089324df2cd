package proxy

import (
	"fmt"
	"net/http"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/wire"
)

// Client is the browser extension's view of a proxy: ValidateBatch for
// a page-load round. It speaks only IRSW1, through the same wire.Hop
// exchange the proxy's own ledger client uses; the proxy's JSON answers
// are for browsers and curl.
type Client struct {
	hop wire.Hop
}

// NewClientHTTP builds a proxy client for base (e.g.
// "http://127.0.0.1:8331") over hc, e.g. to share a connection pool.
// The codec selects nothing: the parameter stays only for callers that
// still pass one.
func NewClientHTTP(base string, _ wire.Codec, hc *http.Client) *Client {
	return &Client{hop: wire.NewHop(base, hc)}
}

// ClientResult is one validated answer as the extension consumes it.
// Proof holds the ledger proof in its Marshal form (nil when the answer
// carries none), rebuilt from the frame's issued-at and signature as the
// proof of the id asked about, so comparisons with the proxy's JSON
// answer can be byte-exact. The proofs of one response share one backing
// array, each clipped to its own bytes.
type ClientResult struct {
	State       ledger.State
	Source      Source
	Displayable bool
	Proof       []byte
}

// fromWire converts one IRSW1 entry but its proof, refusing a state or
// source byte that names none. Displayable is the server's policy,
// state == active.
func fromWire(v wire.ValidateWire) (ClientResult, error) {
	if !ledger.State(v.State).Defined() {
		return ClientResult{}, fmt.Errorf("proxy: bad state byte %d", v.State)
	}
	if v.Source > byte(SourceStale) {
		return ClientResult{}, fmt.Errorf("proxy: bad source byte %d", v.Source)
	}
	state := ledger.State(v.State)
	return ClientResult{
		State:       state,
		Source:      Source(v.Source),
		Displayable: state == ledger.StateActive,
	}, nil
}

// ValidateBatch checks a page worth of images in one round, answers in
// request order. A batch over wire.MaxStatusBatch fails before any
// bytes move; an answer that does not carry exactly one well-formed
// entry per id is an error with no results.
func (c *Client) ValidateBatch(batch []ids.PhotoID) ([]ClientResult, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	if err := wire.CheckBatchSize(len(batch)); err != nil {
		return nil, err
	}
	out := make([]ClientResult, len(batch))
	err := c.hop.Exchange("/v1/validate/batch",
		func(dst []byte) []byte { return wire.EncodeValidateBatchReq(dst, batch) },
		wire.MsgValidateBatchResp, wire.MaxFramePayload,
		func(payload []byte) error {
			// Every proof is rebuilt, out of the pooled body, into one
			// slab: at most one per id, each from at least ProofTailSize
			// bytes of payload.
			slab := make([]byte, 0, min(len(batch), len(payload)/ledger.ProofTailSize)*ledger.MarshaledProofSize)
			n, err := wire.DecodeValidateBatchResp(payload, func(i int, v wire.ValidateWire) error {
				if i >= len(batch) {
					return fmt.Errorf("proxy: more results than the %d requested", len(batch))
				}
				cr, cerr := fromWire(v)
				if cerr != nil {
					return cerr
				}
				if v.Signed != nil {
					at := len(slab)
					slab = v.AppendProof(slab, batch[i])
					cr.Proof = slab[at:len(slab):len(slab)]
				}
				out[i] = cr
				return nil
			})
			if err != nil {
				return err
			}
			if n != len(batch) {
				return fmt.Errorf("proxy: %d results for %d ids", n, len(batch))
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
