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
	"time"

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
	// Codec selects nothing: Claim, Apply, Status, StatusBatch and
	// FilterSync always speak IRSW1. The field stays only for callers
	// that still set it.
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
	"keys", "filter_sync", "admin_revoke",
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
	return co
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

// Hop is the HTTP half of one IRSW1 hop: the base URL, the http.Client
// that reaches it, and the per-exchange deadline. Client (hop 2, proxy →
// ledger) and proxy.Client (hop 1, browser → proxy) each hold one, and
// every hot RPC of either runs through Exchange.
type Hop struct {
	base    string
	http    *http.Client
	timeout time.Duration
	// ctx, when non-nil, is the base context every request derives from
	// (Client.WithContext); nil means context.Background().
	ctx context.Context
	// obs holds the pre-interned per-RPC instruments; nil when the hop
	// was built without ClientOptions.Obs.
	obs *clientObs
}

// NewHop returns a hop to base over hc with no per-exchange deadline
// and no instruments, so an exchange allocates no context: the shape
// hop 1 runs in.
func NewHop(base string, hc *http.Client) Hop { return Hop{base: base, http: hc} }

// Client speaks the ledger protocol. It is safe for concurrent use.
type Client struct {
	hop   Hop
	admin string
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
	return &Client{hop: Hop{base: base, http: hc, timeout: timeout, obs: co}, admin: adminToken}
}

// Base returns the base URL the client targets.
func (c *Client) Base() string { return c.hop.base }

// WithContext returns a copy of the client whose requests derive from
// ctx — cancel the context and in-flight calls abort. The retry layer
// uses this to enforce per-attempt deadlines.
func (c *Client) WithContext(ctx context.Context) Service {
	cp := *c
	cp.hop.ctx = ctx
	return &cp
}

// newRequest builds a request carrying the hop's context and deadline.
// The returned cancel must be called once the response body is fully
// consumed.
func (h *Hop) newRequest(method, path string, body io.Reader) (*http.Request, context.CancelFunc, error) {
	ctx := h.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := context.CancelFunc(func() {})
	if h.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, h.timeout)
	}
	hr, err := http.NewRequestWithContext(ctx, method, h.base+path, body)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return hr, cancel, nil
}

func (c *Client) postJSON(rpc, path string, req, resp any, headers map[string]string) (err error) {
	if c.hop.obs != nil {
		start := time.Now()
		defer func() { c.hop.obs.observe(rpc, start, err) }()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("wire: encoding request: %w", err)
	}
	hr, cancel, err := c.hop.newRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer cancel()
	hr.Header.Set("Content-Type", ContentTypeJSON)
	for k, v := range headers {
		hr.Header.Set(k, v)
	}
	r, err := c.hop.http.Do(hr)
	if err != nil {
		return fmt.Errorf("wire: POST %s: %w", path, transportErr(err))
	}
	return decodeResponse(r, resp)
}

func (c *Client) getJSON(rpc, path string, resp any) (err error) {
	if c.hop.obs != nil {
		start := time.Now()
		defer func() { c.hop.obs.observe(rpc, start, err) }()
	}
	hr, cancel, err := c.hop.newRequest(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer cancel()
	r, err := c.hop.http.Do(hr)
	if err != nil {
		return fmt.Errorf("wire: GET %s: %w", path, transportErr(err))
	}
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

// Exchange runs one hot RPC in IRSW1: a POST of the frame encode
// appends, or a GET when encode is nil. A 2xx answer must be one IRSW1
// frame of the given kind within max bytes; decode receives its payload
// in a pooled buffer, valid only during the call. A 2xx in any other
// encoding is a protocol error, and error statuses carry the JSON
// wire.Error. Bytes that failed to move, or a frame (or payload) that
// did not arrive intact, are a *TransportError.
func (h *Hop) Exchange(rpc, path string, encode func(dst []byte) []byte, kind byte, max int, decode func(payload []byte) error) (err error) {
	if h.obs != nil {
		start := time.Now()
		defer func() { h.obs.observe(rpc, start, err) }()
	}
	method, body := http.MethodGet, io.Reader(nil)
	if encode != nil {
		bp := GetBuf()
		defer PutBuf(bp)
		*bp = encode(*bp)
		method, body = http.MethodPost, bytes.NewReader(*bp)
	}
	hr, cancel, err := h.newRequest(method, path, body)
	if err != nil {
		return err
	}
	defer cancel()
	if encode != nil {
		hr.Header.Set("Content-Type", ContentTypeBinary)
	}
	hr.Header.Set("Accept", ContentTypeBinary)
	r, err := h.http.Do(hr)
	if err != nil {
		return fmt.Errorf("wire: %s %s: %w", method, path, transportErr(err))
	}
	if ct := r.Header.Get("Content-Type"); r.StatusCode/100 != 2 || !IsBinaryContent(ct) {
		if err := decodeResponse(r, nil); err != nil {
			return err
		}
		return fmt.Errorf("wire: %s %s: answered %q, not IRSW1", method, path, ct)
	}
	// A body read to its end leaves the connection reusable as it is;
	// one that fails or runs past max is dropped with its connection.
	bp, err := ReadBody(r.Body, max)
	r.Body.Close()
	if err != nil {
		return fmt.Errorf("wire: %s %s: %w", method, path, transportErr(err))
	}
	defer PutBuf(bp)
	got, payload, err := DecodeMsg(*bp, max)
	if err == nil && got != kind {
		err = ErrFrameCorrupt
	}
	if err == nil {
		err = decode(payload)
	}
	if err != nil {
		return fmt.Errorf("wire: %s %s: %w", method, path, frameErr(err))
	}
	return nil
}

// Claim registers a photo and returns the receipt. A request whose
// hash, key or signature is not 32, 32 and 64 bytes is refused before
// any bytes move: the IRSW1 claim frame's fields have fixed sizes.
func (c *Client) Claim(req *ClaimRequest) (ledger.Receipt, error) {
	if err := checkClaimReq(req); err != nil {
		return ledger.Receipt{}, err
	}
	var rc ledger.Receipt
	err := c.hop.Exchange("claim", "/v1/claim",
		func(dst []byte) []byte { return EncodeClaimReq(dst, req) }, MsgClaimResp, maxBody,
		func(payload []byte) error {
			id, token, proof, err := DecodeClaimResp(payload)
			if err != nil {
				return err
			}
			rc, err = receiptOf(id, token, proof)
			return err
		})
	if err != nil {
		return ledger.Receipt{}, err
	}
	return rc, nil
}

// receiptOf builds the receipt of a claim answer; nothing of token or
// proof is retained.
func receiptOf(id ids.PhotoID, token, proof []byte) (ledger.Receipt, error) {
	tok, err := tsa.Unmarshal(token)
	if err != nil {
		return ledger.Receipt{}, fmt.Errorf("wire: server returned bad timestamp: %w", err)
	}
	// The proof is an optional saving of one Status call, so one that is
	// absent, malformed or about another claim is dropped, never allowed
	// to cost the caller the receipt of a claim the ledger has recorded.
	var p *ledger.StatusProof
	if q, err := ledger.UnmarshalProof(proof); err == nil && q.ID == id {
		p = q
	}
	return ledger.Receipt{ID: id, Timestamp: tok, Proof: p}, nil
}

// Apply submits a signed revoke/unrevoke. seq is not sent: the ledger
// verifies sig over its record's next sequence number. A signature that
// is not 64 bytes is refused before any bytes move, as Claim refuses a
// mis-sized field.
func (c *Client) Apply(id ids.PhotoID, op ledger.Op, _ uint64, sig []byte) error {
	if len(sig) != sigSize {
		return fmt.Errorf("wire: op needs a %d-byte signature, have %d", sigSize, len(sig))
	}
	return c.hop.Exchange("op", "/v1/op",
		func(dst []byte) []byte { return EncodeOpReq(dst, id, op, sig) }, MsgOpResp, maxBody, DecodeOpResp)
}

// Status validates a claim, returning the parsed signed proof. The
// response is rejected unless its proof attests id.
func (c *Client) Status(id ids.PhotoID) (*ledger.StatusProof, error) {
	proof := new(ledger.StatusProof)
	err := c.hop.Exchange("status", "/v1/status?id="+url.QueryEscape(id.String()), nil, MsgStatusResp, maxBody,
		func(payload []byte) error {
			raw, err := DecodeStatusResp(payload)
			if err != nil {
				return err
			}
			return checkProof(id, 0, raw, proof)
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
	if err := CheckBatchSize(len(batch)); err != nil {
		return nil, err
	}
	var proofs []*ledger.StatusProof
	err := c.hop.Exchange("status_batch", "/v1/status/batch",
		func(dst []byte) []byte { return EncodeStatusBatchReq(dst, batch) }, MsgStatusBatchResp, maxBody,
		func(payload []byte) (err error) {
			proofs, err = decodeStatusBatch(payload, batch)
			return err
		})
	if err != nil {
		return nil, err
	}
	return proofs, nil
}

// decodeStatusBatch parses an IRSW1 StatusBatch response payload into
// one proof per requested identifier, all in one backing array; nothing
// of payload is retained.
func decodeStatusBatch(payload []byte, batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	proofs := ledger.NewProofBatch(len(batch))
	n, err := DecodeStatusBatchResp(payload, func(i int, raw []byte) error {
		if i >= len(batch) {
			return fmt.Errorf("wire: server returned more proofs than the %d requested", len(batch))
		}
		return checkProof(batch[i], i, raw, proofs[i])
	})
	if err != nil {
		return nil, err
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

// FilterSync runs one round of the sync protocol: the held
// epoch and base-filter hash go up, an ApplyUpdate payload (or nothing,
// if current) comes back.
func (c *Client) FilterSync(from uint64, baseHash []byte) (payload []byte, latest uint64, err error) {
	path := "/v1/filter/sync?from=" + strconv.FormatUint(from, 10) +
		"&base=" + hex.EncodeToString(baseHash)
	err = c.hop.Exchange("filter_sync", path, nil, MsgFilterSyncResp, maxFilterBytes,
		func(p []byte) error {
			lat, upd, err := DecodeFilterSyncResp(p)
			if err != nil {
				return err
			}
			latest = lat
			if len(upd) > 0 {
				// upd aliases the pooled decode buffer; the sync payload
				// outlives this call.
				payload = append([]byte(nil), upd...)
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
