package proxy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/wire"
)

// Client is the browser extension's view of a proxy: Validate for a
// single image, ValidateBatch for a page-load round. Like wire.Client
// it can prefer the IRSW1 codec and negotiates per request, so an
// extension built against a binary-capable proxy keeps working against
// an older JSON-only one (and the reverse) with identical answers.
type Client struct {
	base  string
	http  *http.Client
	codec wire.Codec
	// binOK records that the proxy advertised IRSW1, unlocking binary
	// request bodies for the batch round.
	binOK atomic.Bool
}

// NewClient builds a proxy client for base (e.g.
// "http://127.0.0.1:8331") preferring the given codec.
func NewClient(base string, codec wire.Codec) *Client {
	return NewClientHTTP(base, codec, &http.Client{Transport: wire.NewTransport()})
}

// NewClientHTTP is NewClient with an explicit *http.Client, e.g. to
// share a connection pool.
func NewClientHTTP(base string, codec wire.Codec, hc *http.Client) *Client {
	return &Client{base: base, http: hc, codec: codec}
}

// Codec reports the client's preferred encoding.
func (c *Client) Codec() wire.Codec { return c.codec }

// ClientResult is one validated answer as the extension consumes it.
// Proof holds the marshaled ledger proof bytes exactly as the proxy
// sent them (nil when the answer carries none), so cross-codec
// comparisons can be byte-exact. The proofs of one binary response
// share a backing array (a copy of its payload), each clipped to its
// own bytes.
type ClientResult struct {
	State       ledger.State
	Source      Source
	Displayable bool
	Proof       []byte
}

// parseState inverts ledger.State.String for the JSON protocol.
func parseState(s string) (ledger.State, error) {
	for _, st := range []ledger.State{ledger.StateUnknown, ledger.StateActive,
		ledger.StateRevoked, ledger.StatePermanentlyRevoked} {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("proxy: bad state %q", s)
}

// parseSource inverts Source.String for the JSON protocol.
func parseSource(s string) (Source, error) {
	for _, src := range []Source{SourceFilter, SourceCache, SourceLedger, SourceStale} {
		if src.String() == s {
			return src, nil
		}
	}
	return 0, fmt.Errorf("proxy: bad source %q", s)
}

// fromJSON converts one JSON answer.
func fromJSON(r *ValidateResponse) (ClientResult, error) {
	st, err := parseState(r.State)
	if err != nil {
		return ClientResult{}, err
	}
	src, err := parseSource(r.Source)
	if err != nil {
		return ClientResult{}, err
	}
	return ClientResult{State: st, Source: src, Displayable: r.Displayable, Proof: r.Proof}, nil
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

// acceptFor returns the Accept header value for the client's codec.
func (c *Client) acceptFor() string {
	if c.codec == wire.CodecBinary {
		return wire.ContentTypeBinary + ", " + wire.ContentTypeJSON
	}
	return wire.ContentTypeJSON
}

// note records the proxy's codec advertisement.
func (c *Client) note(r *http.Response) {
	if r.Header.Get(wire.WireHeader) == wire.WireV1 {
		c.binOK.Store(true)
	}
}

// Validate checks one image.
func (c *Client) Validate(id ids.PhotoID) (ClientResult, error) {
	req, err := http.NewRequest(http.MethodGet,
		c.base+"/v1/validate?id="+url.QueryEscape(id.String()), nil)
	if err != nil {
		return ClientResult{}, err
	}
	req.Header.Set("Accept", c.acceptFor())
	r, err := c.http.Do(req)
	if err != nil {
		return ClientResult{}, err
	}
	c.note(r)
	if !wire.IsBinaryContent(r.Header.Get("Content-Type")) {
		var resp ValidateResponse
		if err := decodeJSONResp(r, &resp); err != nil {
			return ClientResult{}, err
		}
		return fromJSON(&resp)
	}
	var out ClientResult
	err = withFrame(r, func(body []byte) error {
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
	sendBinary := c.codec == wire.CodecBinary && c.binOK.Load()
	out, advertised, err := c.batchOnce(batch, sendBinary)
	if sendBinary && !advertised {
		var we *wire.Error
		if errors.As(err, &we) && we.Code >= 400 && we.Code < 500 {
			// Rolled-back proxy: it refused the binary body at parse
			// time, so one JSON re-encode is safe.
			c.binOK.Store(false)
			out, _, err = c.batchOnce(batch, false)
		}
	}
	return out, err
}

func (c *Client) batchOnce(batch []ids.PhotoID, sendBinary bool) (out []ClientResult, advertised bool, err error) {
	var body []byte
	ct := wire.ContentTypeJSON
	if sendBinary {
		bp := wire.GetBuf()
		defer wire.PutBuf(bp)
		*bp = wire.EncodeValidateBatchReq(*bp, batch)
		body = *bp
		ct = wire.ContentTypeBinary
	} else {
		req := &ValidateBatchRequest{IDs: make([]string, len(batch))}
		for i, id := range batch {
			req.IDs[i] = id.String()
		}
		body, err = json.Marshal(req)
		if err != nil {
			return nil, false, err
		}
	}
	hr, err := http.NewRequest(http.MethodPost, c.base+"/v1/validate/batch", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	hr.Header.Set("Content-Type", ct)
	hr.Header.Set("Accept", c.acceptFor())
	r, err := c.http.Do(hr)
	if err != nil {
		return nil, false, err
	}
	advertised = r.Header.Get(wire.WireHeader) == wire.WireV1
	c.note(r)
	if !wire.IsBinaryContent(r.Header.Get("Content-Type")) {
		var resp ValidateBatchResponse
		if err := decodeJSONResp(r, &resp); err != nil {
			return nil, advertised, err
		}
		if len(resp.Results) != len(batch) {
			return nil, advertised, fmt.Errorf("proxy: %d results for %d ids", len(resp.Results), len(batch))
		}
		out = make([]ClientResult, len(batch))
		for i := range resp.Results {
			out[i], err = fromJSON(&resp.Results[i])
			if err != nil {
				return nil, advertised, err
			}
		}
		return out, advertised, nil
	}
	out = make([]ClientResult, len(batch))
	err = withFrame(r, func(fb []byte) error {
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
		return nil, advertised, err
	}
	return out, advertised, nil
}

// decodeJSONResp decodes a JSON response (success or protocol error),
// draining the body for connection reuse.
func decodeJSONResp(r *http.Response, v any) error {
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, 1<<20))
		r.Body.Close()
	}()
	lim := io.LimitReader(r.Body, 1<<20)
	if r.StatusCode/100 != 2 {
		var e wire.Error
		if err := json.NewDecoder(lim).Decode(&e); err == nil && e.Code != 0 {
			return &e
		}
		return &wire.Error{Code: r.StatusCode, Message: r.Status}
	}
	if !strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentTypeJSON) {
		return fmt.Errorf("proxy: unexpected content type %q", r.Header.Get("Content-Type"))
	}
	return json.NewDecoder(lim).Decode(v)
}

// withFrame reads a binary response body into a pooled buffer and hands
// it to fn (the bytes are valid only during the call). The body is read
// to its end, which leaves the connection reusable; one that fails or
// runs past the frame bound is dropped with its connection.
func withFrame(r *http.Response, fn func(body []byte) error) error {
	defer r.Body.Close()
	bp, err := wire.ReadBody(r.Body, wire.MaxFramePayload)
	if err != nil {
		return err
	}
	defer wire.PutBuf(bp)
	return fn(*bp)
}
