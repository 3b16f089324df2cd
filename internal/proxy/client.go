package proxy

import (
	"bytes"
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

// NewClient builds a proxy client for base (e.g.
// "http://127.0.0.1:8331").
func NewClient(base string) *Client {
	return NewClientHTTP(base, wire.CodecBinary, &http.Client{Transport: wire.NewTransport()})
}

// NewClientHTTP is NewClient with an explicit *http.Client, e.g. to
// share a connection pool. The codec selects nothing: the parameter
// stays only for callers that still pass one.
func NewClientHTTP(base string, _ wire.Codec, hc *http.Client) *Client {
	return &Client{hop: wire.NewHop(base, hc)}
}

// ClientResult is one validated answer as the extension consumes it.
// Proof holds the marshaled ledger proof bytes exactly as the proxy
// sent them (nil when the answer carries none), so comparisons with the
// proxy's JSON answer can be byte-exact. The proofs of one response
// share a backing array (a copy of its payload), each clipped to its
// own bytes.
type ClientResult struct {
	State       ledger.State
	Source      Source
	Displayable bool
	Proof       []byte
}

// fromWire converts one IRSW1 entry. The proof still aliases the payload
// v was decoded from (clipped to its own bytes), so callers decode from
// a copy of the payload that the results may keep.
func fromWire(v wire.ValidateWire) (ClientResult, error) {
	if !ledger.State(v.State).Defined() {
		return ClientResult{}, fmt.Errorf("proxy: bad state byte %d", v.State)
	}
	if v.Source > byte(SourceStale) {
		return ClientResult{}, fmt.Errorf("proxy: bad source byte %d", v.Source)
	}
	return ClientResult{
		State:       ledger.State(v.State),
		Source:      Source(v.Source),
		Displayable: v.Displayable,
		Proof:       v.Proof,
	}, nil
}

// ValidateBatch checks a page worth of images in one round, answers in
// request order. A batch over wire.MaxStatusBatch fails before any
// bytes move.
func (c *Client) ValidateBatch(batch []ids.PhotoID) ([]ClientResult, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	if err := wire.CheckBatchSize(len(batch)); err != nil {
		return nil, err
	}
	out := make([]ClientResult, len(batch))
	err := c.hop.Exchange("validate_batch", "/v1/validate/batch",
		func(dst []byte) []byte { return wire.EncodeValidateBatchReq(dst, batch) },
		wire.MsgValidateBatchResp, wire.MaxFramePayload,
		func(payload []byte) error {
			// One copy of the payload, out of the pooled body, for every
			// result's proof to alias.
			n, err := wire.DecodeValidateBatchResp(bytes.Clone(payload), func(i int, v wire.ValidateWire) error {
				if i >= len(batch) {
					return fmt.Errorf("proxy: more results than the %d requested", len(batch))
				}
				cr, cerr := fromWire(v)
				if cerr != nil {
					return cerr
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
