package wire

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"irs/internal/bloom"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/tsa"
)

// DefaultTimeout bounds one request/response exchange when the caller
// does not configure one. Serving-path callers that care about tail
// latency (the proxy, the retry layer) configure something far shorter;
// this is the safety net for interactive tools.
const DefaultTimeout = 30 * time.Second

// ClientOptions tunes a Client beyond the defaults.
type ClientOptions struct {
	// Timeout bounds each request/response exchange. 0 means
	// DefaultTimeout; negative disables the deadline entirely (the
	// caller's context is then the only bound).
	Timeout time.Duration
	// HTTPClient overrides the underlying transport, e.g. to share a
	// connection pool across clients. Its own Timeout field is left
	// alone; the Client applies its deadline per request via context.
	HTTPClient *http.Client
	// Obs, when non-nil, interns per-RPC latency histograms and
	// result-class counters (irs_wire_client_*) in the given registry.
	// nil disables client instrumentation at zero per-call cost.
	Obs *obs.Registry
	// Codec selects the hot-RPC encoding. CodecJSON (the zero value)
	// speaks the compatibility protocol everywhere; CodecBinary
	// advertises IRSW1 on Status/StatusBatch/FilterSync and upgrades
	// request bodies once the server has been seen to speak it. The
	// choice is invisible to callers: same Service surface, same
	// results, same error classification.
	Codec Codec
}

// NewTransport returns the http.Transport the package's clients use
// when the caller does not supply one: DefaultTransport semantics with
// the idle pool sized for grouped batch fan-out. The stock
// MaxIdleConnsPerHost of 2 makes a proxy running 8+ batch workers
// against one ledger discard most connections at return time, paying a
// fresh TCP handshake per page; the serving path keeps every worker's
// connection warm instead.
func NewTransport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 64
	tr.IdleConnTimeout = 90 * time.Second
	return tr
}

// clientRPCs is the fixed RPC name set; instruments are interned once
// per client at construction, never per call.
var clientRPCs = []string{
	"claim", "op", "status", "status_batch", "seq",
	"keys", "filter", "filter_sync", "admin_revoke",
}

// rpcInstruments is one RPC's pre-interned series.
type rpcInstruments struct {
	lat                     *obs.Histogram
	ok, protocol, transport *obs.Counter
}

// clientObs maps RPC names to instruments; a nil *clientObs is the
// disabled state.
type clientObs struct {
	rpcs map[string]*rpcInstruments
	// codec[0] counts responses decoded as JSON, codec[1] as IRSW1;
	// rxBytes mirrors that split for response payload bytes where the
	// size is known (always, for binary).
	codec   [2]*obs.Counter
	rxBytes [2]*obs.Counter
}

func newClientObs(reg *obs.Registry) *clientObs {
	co := &clientObs{rpcs: make(map[string]*rpcInstruments, len(clientRPCs))}
	for _, rpc := range clientRPCs {
		l := obs.L("rpc", rpc)
		co.rpcs[rpc] = &rpcInstruments{
			lat:       reg.Histogram("irs_wire_client_seconds", nil, l),
			ok:        reg.Counter("irs_wire_client_requests_total", l, obs.L("class", "ok")),
			protocol:  reg.Counter("irs_wire_client_requests_total", l, obs.L("class", "protocol")),
			transport: reg.Counter("irs_wire_client_requests_total", l, obs.L("class", "transport")),
		}
	}
	for i, name := range [2]string{"json", "binary"} {
		l := obs.L("codec", name)
		co.codec[i] = reg.Counter("irs_wire_client_codec_total", l)
		co.rxBytes[i] = reg.Counter("irs_wire_client_rx_bytes_total", l)
	}
	return co
}

// observeCodec records one decoded response's encoding and size; n < 0
// means the size is unknown.
func (co *clientObs) observeCodec(binary bool, n int) {
	if co == nil {
		return
	}
	i := 0
	if binary {
		i = 1
	}
	co.codec[i].Inc()
	if n >= 0 {
		co.rxBytes[i].Add(uint64(n))
	}
}

// observe records one finished RPC. Classes: "ok" for a successful
// exchange, "transport" when the request or response failed to move
// over the network, "protocol" for everything the server (or response
// validation) rejected.
func (co *clientObs) observe(rpc string, start time.Time, err error) {
	if co == nil {
		return
	}
	ri := co.rpcs[rpc]
	if ri == nil {
		return
	}
	ri.lat.Observe(time.Since(start).Seconds())
	var te *TransportError
	switch {
	case err == nil:
		ri.ok.Inc()
	case errors.As(err, &te):
		ri.transport.Inc()
	default:
		ri.protocol.Inc()
	}
}

// TransportError marks a failure moving a request or response over the
// network, as opposed to a protocol-level *Error answered by the
// server. PreSend reports that the failure happened before the request
// could have reached the server — dial/connection-refused class — which
// makes a retry safe even for non-idempotent verbs like Claim.
type TransportError struct {
	PreSend bool
	Err     error
}

// Error implements the error interface.
func (e *TransportError) Error() string { return fmt.Sprintf("wire: transport: %v", e.Err) }

// Unwrap exposes the underlying network error.
func (e *TransportError) Unwrap() error { return e.Err }

// preSendFailure reports whether err shows the request never left the
// client: a dial-phase failure means no connection existed to carry it.
func preSendFailure(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// transportErr wraps a client-side HTTP failure with its pre-send
// classification, preserving the original chain.
func transportErr(err error) error {
	return &TransportError{PreSend: preSendFailure(err), Err: err}
}

// Client speaks the ledger protocol. It is safe for concurrent use.
type Client struct {
	base    string
	http    *http.Client
	admin   string
	timeout time.Duration
	// ctx, when non-nil, is the base context every request derives from
	// (WithContext); nil means context.Background().
	ctx context.Context
	// obs holds the pre-interned per-RPC instruments; nil when the
	// client was built without ClientOptions.Obs.
	obs *clientObs
	// codec is the preferred hot-RPC encoding; binOK records whether
	// the server has advertised IRSW1 (pointer so WithContext copies
	// share the negotiation state).
	codec Codec
	binOK *atomic.Bool
}

// NewClient creates a client for the ledger at base (e.g.
// "http://127.0.0.1:8330"). adminToken may be empty for non-appeals
// callers.
func NewClient(base string, adminToken string) *Client {
	return NewClientOpts(base, adminToken, ClientOptions{})
}

// NewClientOpts creates a client with explicit options.
func NewClientOpts(base string, adminToken string, opts ClientOptions) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Transport: NewTransport()}
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	var co *clientObs
	if opts.Obs != nil {
		co = newClientObs(opts.Obs)
	}
	return &Client{
		base: base, admin: adminToken, http: hc, timeout: timeout, obs: co,
		codec: opts.Codec, binOK: new(atomic.Bool),
	}
}

// Codec reports the client's preferred hot-RPC encoding.
func (c *Client) Codec() Codec { return c.codec }

// acceptValue is the Accept header a binary-preferring client sends:
// IRSW1 first, JSON as the declared fallback.
const acceptValue = ContentTypeBinary + ", " + ContentTypeJSON

// noteWire records the server's codec advertisement; once a response
// has carried it, request bodies may be encoded in IRSW1.
func (c *Client) noteWire(r *http.Response) {
	if r.Header.Get(WireHeader) == WireV1 {
		c.binOK.Store(true)
	}
}

// Base returns the base URL the client targets.
func (c *Client) Base() string { return c.base }

// WithContext returns a copy of the client whose requests derive from
// ctx — cancel the context and in-flight calls abort. The retry layer
// uses this to enforce per-attempt deadlines.
func (c *Client) WithContext(ctx context.Context) Service {
	cp := *c
	cp.ctx = ctx
	return &cp
}

// newRequest builds a request carrying the client's context and
// deadline. The returned cancel must be called once the response body
// is fully consumed.
func (c *Client) newRequest(method, path string, body io.Reader) (*http.Request, context.CancelFunc, error) {
	ctx := c.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := context.CancelFunc(func() {})
	if c.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
	}
	hr, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return hr, cancel, nil
}

func (c *Client) postJSON(rpc, path string, req, resp any, headers map[string]string) (err error) {
	if c.obs != nil {
		start := time.Now()
		defer func() { c.obs.observe(rpc, start, err) }()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("wire: encoding request: %w", err)
	}
	hr, cancel, err := c.newRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer cancel()
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		hr.Header.Set(k, v)
	}
	r, err := c.http.Do(hr)
	if err != nil {
		return fmt.Errorf("wire: POST %s: %w", path, transportErr(err))
	}
	c.obs.observeCodec(false, int(r.ContentLength))
	return decodeResponse(r, resp)
}

func (c *Client) getJSON(rpc, path string, resp any) (err error) {
	if c.obs != nil {
		start := time.Now()
		defer func() { c.obs.observe(rpc, start, err) }()
	}
	hr, cancel, err := c.newRequest(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer cancel()
	r, err := c.http.Do(hr)
	if err != nil {
		return fmt.Errorf("wire: GET %s: %w", path, transportErr(err))
	}
	c.obs.observeCodec(false, int(r.ContentLength))
	return decodeResponse(r, resp)
}

// frameErr classifies a frame decode failure: a truncated or CRC-bad
// frame is indistinguishable from bytes lost in flight, so it becomes
// a TransportError and the retry layer's idempotency rules decide
// whether to replay. Anything else passes through unchanged.
func frameErr(err error) error {
	if errors.Is(err, ErrFrameTruncated) || errors.Is(err, ErrFrameCorrupt) {
		return &TransportError{Err: err}
	}
	return err
}

// drainClose empties (bounded) and closes a response body so the
// connection stays reusable; the binary paths share decodeResponse's
// keep-alive contract.
func drainClose(body io.ReadCloser, limit int64) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, limit))
	body.Close()
}

// ReadBody drains r into a buffer borrowed with GetBuf, which the
// caller returns with PutBuf. Steady state this allocates nothing: the
// buffer grows to the largest body seen and is then reused. A body
// exceeding max is a truncation-class transport failure (the peer is
// not speaking our protocol bounds).
func ReadBody(r io.Reader, max int) (*[]byte, error) {
	bp := GetBuf()
	b := *bp
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if len(b) > max {
			*bp = b
			PutBuf(bp)
			return nil, ErrFrameCorrupt
		}
		if err == io.EOF {
			*bp = b
			return bp, nil
		}
		if err != nil {
			*bp = b
			PutBuf(bp)
			return nil, err
		}
	}
}

// getBinary issues a GET advertising IRSW1 and dispatches the response
// to exactly one decoder by Content-Type. onBinary receives the whole
// framed body in a pooled buffer, valid only during the call; onJSON
// is the compatibility path and receives the open response (it must
// fully consume the body, e.g. via decodeResponse).
func (c *Client) getBinary(rpc, path string, maxResp int, onBinary func(body []byte) error, onJSON func(r *http.Response) error) (err error) {
	if c.obs != nil {
		start := time.Now()
		defer func() { c.obs.observe(rpc, start, err) }()
	}
	hr, cancel, err := c.newRequest(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer cancel()
	hr.Header.Set("Accept", acceptValue)
	r, err := c.http.Do(hr)
	if err != nil {
		return fmt.Errorf("wire: GET %s: %w", path, transportErr(err))
	}
	c.noteWire(r)
	if r.StatusCode/100 != 2 {
		return decodeResponse(r, nil)
	}
	if !IsBinaryContent(r.Header.Get("Content-Type")) {
		c.obs.observeCodec(false, int(r.ContentLength))
		return onJSON(r)
	}
	defer drainClose(r.Body, int64(maxResp))
	bp, rerr := ReadBody(r.Body, maxResp)
	if rerr != nil {
		return fmt.Errorf("wire: GET %s: %w", path, transportErr(rerr))
	}
	defer PutBuf(bp)
	c.obs.observeCodec(true, len(*bp))
	if derr := onBinary(*bp); derr != nil {
		return fmt.Errorf("wire: GET %s: %w", path, derr)
	}
	return nil
}

// postNegotiated runs one body-bearing hot RPC under codec
// negotiation. jsonReq builds the fallback request value (called only
// when a JSON body is actually sent); encodeBinary appends the IRSW1
// request frame. The request body is binary only once the server has
// advertised IRSW1; if a rolled-back server then rejects a binary body
// with a 4xx and no advertisement, the call is retried once re-encoded
// as JSON — safe regardless of idempotency, because the old server
// refused the body at parse time, before any state change.
func (c *Client) postNegotiated(rpc, path string, jsonReq func() any, encodeBinary func(dst []byte) []byte, onBinary func(body []byte) error, onJSON func(r *http.Response) error) error {
	sendBinary := c.binOK.Load()
	advertised, err := c.postOnce(rpc, path, jsonReq, encodeBinary, sendBinary, onBinary, onJSON)
	if sendBinary && !advertised {
		var we *Error
		if errors.As(err, &we) && we.Code >= 400 && we.Code < 500 {
			c.binOK.Store(false)
			_, err = c.postOnce(rpc, path, jsonReq, encodeBinary, false, onBinary, onJSON)
		}
	}
	return err
}

// postOnce performs one negotiated POST exchange, reporting whether
// the response advertised IRSW1 alongside the call's outcome.
func (c *Client) postOnce(rpc, path string, jsonReq func() any, encodeBinary func(dst []byte) []byte, sendBinary bool, onBinary func(body []byte) error, onJSON func(r *http.Response) error) (advertised bool, err error) {
	if c.obs != nil {
		start := time.Now()
		defer func() { c.obs.observe(rpc, start, err) }()
	}
	var body []byte
	ct := ContentTypeJSON
	if sendBinary {
		bp := GetBuf()
		defer PutBuf(bp)
		*bp = encodeBinary(*bp)
		body = *bp
		ct = ContentTypeBinary
	} else {
		body, err = json.Marshal(jsonReq())
		if err != nil {
			return false, fmt.Errorf("wire: encoding request: %w", err)
		}
	}
	hr, cancel, err := c.newRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer cancel()
	hr.Header.Set("Content-Type", ct)
	hr.Header.Set("Accept", acceptValue)
	r, err := c.http.Do(hr)
	if err != nil {
		return false, fmt.Errorf("wire: POST %s: %w", path, transportErr(err))
	}
	advertised = r.Header.Get(WireHeader) == WireV1
	c.noteWire(r)
	if r.StatusCode/100 != 2 {
		return advertised, decodeResponse(r, nil)
	}
	if !IsBinaryContent(r.Header.Get("Content-Type")) {
		c.obs.observeCodec(false, int(r.ContentLength))
		return advertised, onJSON(r)
	}
	defer drainClose(r.Body, maxBody)
	bp, rerr := ReadBody(r.Body, maxBody)
	if rerr != nil {
		return advertised, fmt.Errorf("wire: POST %s: %w", path, transportErr(rerr))
	}
	defer PutBuf(bp)
	c.obs.observeCodec(true, len(*bp))
	if derr := onBinary(*bp); derr != nil {
		return advertised, fmt.Errorf("wire: POST %s: %w", path, derr)
	}
	return advertised, nil
}

// Claim registers a photo and returns the receipt.
func (c *Client) Claim(req *ClaimRequest) (ledger.Receipt, error) {
	var resp ClaimResponse
	if err := c.postJSON("claim", "/v1/claim", req, &resp, nil); err != nil {
		return ledger.Receipt{}, err
	}
	id, err := ids.Parse(resp.ID)
	if err != nil {
		return ledger.Receipt{}, fmt.Errorf("wire: server returned bad id: %w", err)
	}
	tok, err := tsa.Unmarshal(resp.Timestamp)
	if err != nil {
		return ledger.Receipt{}, fmt.Errorf("wire: server returned bad timestamp: %w", err)
	}
	// The proof is an optional saving of one Status call, so one that is
	// absent, malformed or about another claim is dropped, never allowed
	// to cost the caller the receipt of a claim the ledger has recorded.
	var proof *ledger.StatusProof
	if p, err := ledger.UnmarshalProof(resp.Proof); err == nil && p.ID == id {
		proof = p
	}
	return ledger.Receipt{ID: id, Timestamp: tok, Proof: proof}, nil
}

// Apply submits a signed revoke/unrevoke.
func (c *Client) Apply(id ids.PhotoID, op ledger.Op, seq uint64, sig []byte) error {
	return c.postJSON("op", "/v1/op", &OpRequest{ID: id.String(), Op: int(op), Seq: seq, Sig: sig}, nil, nil)
}

// Status validates a claim, returning the parsed signed proof.
func (c *Client) Status(id ids.PhotoID) (*ledger.StatusProof, error) {
	path := "/v1/status?id=" + url.QueryEscape(id.String())
	if c.codec != CodecBinary {
		var resp StatusResponse
		if err := c.getJSON("status", path, &resp); err != nil {
			return nil, err
		}
		return ledger.UnmarshalProof(resp.Proof)
	}
	var proof *ledger.StatusProof
	err := c.getBinary("status", path, maxBody,
		func(body []byte) error {
			kind, payload, err := DecodeMsg(body, MaxFramePayload)
			if err != nil {
				return frameErr(err)
			}
			if kind != MsgStatusResp {
				return frameErr(ErrFrameCorrupt)
			}
			raw, err := DecodeStatusResp(payload)
			if err != nil {
				return frameErr(err)
			}
			p, perr := ledger.UnmarshalProof(raw)
			if perr != nil {
				return perr
			}
			proof = p
			return nil
		},
		func(r *http.Response) error {
			var resp StatusResponse
			if err := decodeResponse(r, &resp); err != nil {
				return err
			}
			p, perr := ledger.UnmarshalProof(resp.Proof)
			if perr != nil {
				return perr
			}
			proof = p
			return nil
		})
	if err != nil {
		return nil, err
	}
	return proof, nil
}

// StatusBatch validates up to MaxStatusBatch claims in one POST,
// returning parsed proofs in request order. The response is rejected
// unless it carries exactly one well-formed proof per requested
// identifier, each attesting the identifier it was asked about.
func (c *Client) StatusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	if len(batch) > MaxStatusBatch {
		return nil, fmt.Errorf("wire: batch of %d exceeds limit %d", len(batch), MaxStatusBatch)
	}
	if c.codec != CodecBinary {
		req := &StatusBatchRequest{IDs: make([]string, len(batch))}
		for i, id := range batch {
			req.IDs[i] = id.String()
		}
		var resp StatusBatchResponse
		if err := c.postJSON("status_batch", "/v1/status/batch", req, &resp, nil); err != nil {
			return nil, err
		}
		return fillProofs(batch, resp.Proofs)
	}
	var proofs []*ledger.StatusProof
	err := c.postNegotiated("status_batch", "/v1/status/batch",
		func() any {
			req := &StatusBatchRequest{IDs: make([]string, len(batch))}
			for i, id := range batch {
				req.IDs[i] = id.String()
			}
			return req
		},
		func(dst []byte) []byte { return EncodeStatusBatchReq(dst, batch) },
		func(body []byte) (err error) {
			proofs, err = decodeStatusBatch(body, batch)
			return err
		},
		func(r *http.Response) error {
			var resp StatusBatchResponse
			err := decodeResponse(r, &resp)
			if err == nil {
				proofs, err = fillProofs(batch, resp.Proofs)
			}
			return err
		})
	if err != nil {
		return nil, err
	}
	return proofs, nil
}

// decodeStatusBatch parses an IRSW1 StatusBatch response body into one
// proof per requested identifier, all in one backing array; nothing of
// body is retained.
func decodeStatusBatch(body []byte, batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	kind, payload, err := DecodeMsg(body, MaxFramePayload)
	if err != nil {
		return nil, frameErr(err)
	}
	if kind != MsgStatusBatchResp {
		return nil, frameErr(ErrFrameCorrupt)
	}
	proofs := ledger.NewProofBatch(len(batch))
	n, err := DecodeStatusBatchResp(payload, func(i int, raw []byte) error {
		if i >= len(batch) {
			return fmt.Errorf("wire: server returned more proofs than the %d requested", len(batch))
		}
		return checkProof(batch[i], i, raw, proofs[i])
	})
	if err != nil {
		return nil, frameErr(err)
	}
	if n != len(batch) {
		return nil, fmt.Errorf("wire: server returned %d proofs for %d ids", n, len(batch))
	}
	return proofs, nil
}

// checkProof parses raw, the i-th proof of a response, into p and
// rejects it unless it attests id, the identifier asked about.
func checkProof(id ids.PhotoID, i int, raw []byte, p *ledger.StatusProof) error {
	if err := p.Unmarshal(raw); err != nil {
		return fmt.Errorf("wire: server returned bad proof %d: %w", i, err)
	}
	if p.ID != id {
		return fmt.Errorf("wire: proof %d attests %s, want %s", i, p.ID, id)
	}
	return nil
}

// fillProofs validates a JSON batch response's proofs against the
// request and parses them into one backing array.
func fillProofs(batch []ids.PhotoID, raws [][]byte) ([]*ledger.StatusProof, error) {
	if len(raws) != len(batch) {
		return nil, fmt.Errorf("wire: server returned %d proofs for %d ids", len(raws), len(batch))
	}
	proofs := ledger.NewProofBatch(len(batch))
	for i, raw := range raws {
		if err := checkProof(batch[i], i, raw, proofs[i]); err != nil {
			return nil, err
		}
	}
	return proofs, nil
}

// Seq fetches the current operation sequence for owner-side signing.
func (c *Client) Seq(id ids.PhotoID) (uint64, error) {
	var resp SeqQueryResponse
	if err := c.getJSON("seq", "/v1/seq?id="+url.QueryEscape(id.String()), &resp); err != nil {
		return 0, err
	}
	return resp.Seq, nil
}

// Keys fetches the ledger's verification keys.
func (c *Client) Keys() (*KeysResponse, error) {
	var resp KeysResponse
	if err := c.getJSON("keys", "/v1/keys", &resp); err != nil {
		return nil, err
	}
	if len(resp.SigningKey) != ed25519.PublicKeySize || len(resp.TimestampKey) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("wire: server returned malformed keys")
	}
	return &resp, nil
}

// maxFilterBytes bounds filter downloads; the bootstrap design tops out
// at proxy-held filters, so 1 GiB mirrors the paper's largest
// browser-resident filter.
const maxFilterBytes = 1 << 30

// getRaw issues a GET whose successful body is binary (filters); error
// bodies are still the JSON protocol error.
func (c *Client) getRaw(rpc, path string) (raw []byte, epoch uint64, err error) {
	if c.obs != nil {
		start := time.Now()
		defer func() { c.obs.observe(rpc, start, err) }()
	}
	hr, cancel, err := c.newRequest(http.MethodGet, path, nil)
	if err != nil {
		return nil, 0, err
	}
	defer cancel()
	r, err := c.http.Do(hr)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: GET %s: %w", path, transportErr(err))
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		defer func() { _, _ = io.Copy(io.Discard, io.LimitReader(r.Body, maxBody)) }()
		var e Error
		if jerr := json.NewDecoder(io.LimitReader(r.Body, maxBody)).Decode(&e); jerr == nil && e.Code != 0 {
			return nil, 0, &e
		}
		return nil, 0, &Error{Code: r.StatusCode, Message: r.Status}
	}
	epoch, err = strconv.ParseUint(r.Header.Get("X-IRS-Epoch"), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: missing epoch header on %s", path)
	}
	raw, err = io.ReadAll(io.LimitReader(r.Body, maxFilterBytes))
	if err != nil {
		return nil, 0, transportErr(err)
	}
	return raw, epoch, nil
}

// Filter downloads the latest revocation filter snapshot.
func (c *Client) Filter() (epoch uint64, f *bloom.Filter, err error) {
	raw, epoch, err := c.getRaw("filter", "/v1/filter")
	if err != nil {
		return 0, nil, err
	}
	f, err = bloom.Unmarshal(raw)
	return epoch, f, err
}

// FilterSync runs one round of the sync protocol: the held
// epoch and base-filter hash go up, an ApplyUpdate payload (or nothing,
// if current) comes back.
func (c *Client) FilterSync(from uint64, baseHash []byte) (payload []byte, latest uint64, err error) {
	path := "/v1/filter/sync?from=" + strconv.FormatUint(from, 10) +
		"&base=" + hex.EncodeToString(baseHash)
	if c.codec != CodecBinary {
		payload, latest, err = c.getRaw("filter_sync", path)
		if err == nil && len(payload) == 0 {
			payload = nil
		}
		return payload, latest, err
	}
	err = c.getBinary("filter_sync", path, maxFilterBytes,
		func(body []byte) error {
			kind, p, err := DecodeMsg(body, maxFilterBytes)
			if err != nil {
				return frameErr(err)
			}
			if kind != MsgFilterSyncResp {
				return frameErr(ErrFrameCorrupt)
			}
			lat, upd, err := DecodeFilterSyncResp(p)
			if err != nil {
				return frameErr(err)
			}
			latest = lat
			if len(upd) > 0 {
				// upd aliases the pooled decode buffer; the sync payload
				// outlives this call.
				payload = append([]byte(nil), upd...)
			}
			return nil
		},
		func(r *http.Response) error {
			// Compatibility shape: raw octet-stream body, epoch in the
			// X-IRS-Epoch header.
			epoch, perr := strconv.ParseUint(r.Header.Get("X-IRS-Epoch"), 10, 64)
			if perr != nil {
				drainClose(r.Body, maxBody)
				return fmt.Errorf("wire: missing epoch header on %s", path)
			}
			raw, rerr := io.ReadAll(io.LimitReader(r.Body, maxFilterBytes))
			r.Body.Close()
			if rerr != nil {
				return transportErr(rerr)
			}
			latest = epoch
			if len(raw) > 0 {
				payload = raw
			}
			return nil
		})
	if err != nil {
		return nil, 0, err
	}
	return payload, latest, nil
}

// PermanentRevoke invokes the admin endpoint; the client must have been
// constructed with the ledger's admin token.
func (c *Client) PermanentRevoke(id ids.PhotoID) error {
	return c.postJSON("admin_revoke", "/v1/admin/permanent-revoke",
		&AdminRevokeRequest{ID: id.String()}, nil,
		map[string]string{"Authorization": "Bearer " + c.admin})
}

// Directory maps ledger identifiers to Service instances, letting any
// validator route a PhotoID to its issuing ledger without external
// lookups (the ledger ID rides in the identifier's high bits). Safe for
// concurrent use: Register may race the read paths (the proxy registers
// recovering ledgers while RefreshFilters fans out over the rest).
type Directory struct {
	mu      sync.RWMutex
	clients map[ids.LedgerID]Service
}

// NewDirectory builds an empty directory.
func NewDirectory() *Directory {
	return &Directory{clients: make(map[ids.LedgerID]Service)}
}

// Register adds or replaces a ledger's service.
func (d *Directory) Register(id ids.LedgerID, c Service) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clients[id] = c
}

// For routes an identifier to its ledger's service.
func (d *Directory) For(id ids.PhotoID) (Service, error) {
	return d.ForLedger(id.Ledger)
}

// ForLedger routes a ledger identifier to its service; grouped batch
// queries resolve their per-ledger target through this.
func (d *Directory) ForLedger(lid ids.LedgerID) (Service, error) {
	d.mu.RLock()
	c, ok := d.clients[lid]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("wire: no ledger registered for id %d", lid)
	}
	return c, nil
}

// All returns a snapshot copy of every registered service, for filter
// aggregation sweeps.
func (d *Directory) All() map[ids.LedgerID]Service {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[ids.LedgerID]Service, len(d.clients))
	for k, v := range d.clients {
		out[k] = v
	}
	return out
}
