package proxy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/wire"
)

// Client is the browser extension's view of a proxy: Validate for a
// single image, ValidateBatch for a page-load round. It speaks only
// IRSW1; the proxy's JSON answers are for browsers and curl.
type Client struct {
	base string
	http *http.Client
}

// NewClient builds a proxy client for base (e.g.
// "http://127.0.0.1:8331").
func NewClient(base string) *Client {
	return &Client{base: base, http: &http.Client{Transport: wire.NewTransport()}}
}

// NewClientHTTP is NewClient with an explicit *http.Client, e.g. to
// share a connection pool. The codec selects nothing: the parameter
// stays only for callers that still pass one.
func NewClientHTTP(base string, _ wire.Codec, hc *http.Client) *Client {
	return &Client{base: base, http: hc}
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

// Validate checks one image.
func (c *Client) Validate(id ids.PhotoID) (ClientResult, error) {
	var out ClientResult
	err := c.exchange("/v1/validate?id="+url.QueryEscape(id.String()), nil, func(body []byte) error {
		kind, payload, err := wire.DecodeMsg(body, wire.MaxFramePayload)
		if err != nil {
			return err
		}
		if kind != wire.MsgValidateResp {
			return wire.ErrFrameCorrupt
		}
		v, err := wire.DecodeValidateResp(bytes.Clone(payload))
		if err != nil {
			return err
		}
		out, err = fromWire(v)
		return err
	})
	return out, err
}

// ValidateBatch checks a page worth of images in one round, answers in
// request order.
func (c *Client) ValidateBatch(batch []ids.PhotoID) ([]ClientResult, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	out := make([]ClientResult, len(batch))
	err := c.exchange("/v1/validate/batch",
		func(dst []byte) []byte { return wire.EncodeValidateBatchReq(dst, batch) },
		func(fb []byte) error {
			kind, payload, err := wire.DecodeMsg(fb, wire.MaxFramePayload)
			if err != nil {
				return err
			}
			if kind != wire.MsgValidateBatchResp {
				return wire.ErrFrameCorrupt
			}
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

// exchange runs one request in IRSW1: a POST of the frame encode
// appends, or a GET when encode is nil. A 2xx answer must be IRSW1; fn
// receives its body in a pooled buffer, valid only during the call. The
// body is read to its end, which leaves the connection reusable; one
// that fails or runs past the frame bound is dropped with its
// connection.
func (c *Client) exchange(path string, encode func(dst []byte) []byte, fn func(body []byte) error) error {
	method, body := http.MethodGet, io.Reader(nil)
	if encode != nil {
		bp := wire.GetBuf()
		defer wire.PutBuf(bp)
		*bp = encode(*bp)
		method, body = http.MethodPost, bytes.NewReader(*bp)
	}
	hr, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if encode != nil {
		hr.Header.Set("Content-Type", wire.ContentTypeBinary)
	}
	hr.Header.Set("Accept", wire.ContentTypeBinary)
	r, err := c.http.Do(hr)
	if err != nil {
		return err
	}
	if r.StatusCode/100 != 2 || !wire.IsBinaryContent(r.Header.Get("Content-Type")) {
		return errorResp(r)
	}
	defer r.Body.Close()
	bp, err := wire.ReadBody(r.Body, wire.MaxFramePayload)
	if err != nil {
		return err
	}
	defer wire.PutBuf(bp)
	return fn(*bp)
}

// errorResp turns a response that is not an IRSW1 answer into an
// error: the protocol error for an error status, a protocol violation
// for a 2xx in any other encoding. The body is drained for connection
// reuse.
func errorResp(r *http.Response) error {
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, 1<<20))
		r.Body.Close()
	}()
	if r.StatusCode/100 == 2 {
		return fmt.Errorf("proxy: answered %q, not IRSW1", r.Header.Get("Content-Type"))
	}
	var e wire.Error
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&e); err == nil && e.Code != 0 {
		return &e
	}
	return &wire.Error{Code: r.StatusCode, Message: r.Status}
}
