package wire

import (
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
)

// Server adapts a ledger.Ledger to the HTTP protocol. Construct with
// NewServer and mount it anywhere an http.Handler goes. The server
// speaks both codecs, chosen per request: JSON everywhere, and IRSW1
// on the hot routes (claim, op, status batch, filter sync)
// when the request's Content-Type or Accept names it.
type Server struct {
	ledger *ledger.Ledger
	// adminToken guards the permanent-revoke endpoint. Empty disables
	// the endpoint entirely.
	adminToken string
	mux        *http.ServeMux
	obsReg     *obs.Registry
	codec      CodecWriter
}

// ServerOptions tunes the optional server surfaces.
type ServerOptions struct {
	// Debug mounts GET /debug/metrics (Prometheus text) and the
	// net/http/pprof endpoints. Off by default: these expose
	// operational detail and on-demand profiling, so binaries gate
	// them behind an explicit flag.
	Debug bool
}

// NewServer wraps l. adminToken authorizes the appeals process's
// permanent revocations; pass "" to disable the admin surface.
func NewServer(l *ledger.Ledger, adminToken string) *Server {
	return NewServerOpts(l, adminToken, ServerOptions{})
}

// NewServerOpts is NewServer with explicit observability options. The
// per-route series live in the ledger's registry, next to its
// irs_ledger_* counters.
func NewServerOpts(l *ledger.Ledger, adminToken string, opts ServerOptions) *Server {
	reg := l.Registry()
	s := &Server{ledger: l, adminToken: adminToken, mux: http.NewServeMux(), obsReg: reg,
		codec: NewCodecWriter(reg, "irs_wire_server")}
	route := func(pattern, name string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.instrument(name, h))
	}
	route("POST /v1/claim", "claim", s.handleClaim)
	route("POST /v1/op", "op", s.handleOp)
	route("POST /v1/status/batch", "status_batch", s.handleStatusBatch)
	route("GET /v1/seq", "seq", s.handleSeq)
	route("GET /v1/keys", "keys", s.handleKeys)
	route("GET /v1/filter/sync", "filter_sync", s.handleFilterSync)
	route("POST /v1/admin/permanent-revoke", "admin_revoke", s.handleAdminRevoke)
	if opts.Debug {
		obs.RegisterDebug(s.mux, reg)
	}
	return s
}

// statusWriter captures the response status for the route counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a route handler with a latency histogram and a
// status-class counter. Instruments are interned per route at mount
// time; per request the cost is two clock reads and the atomics.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	lat := s.obsReg.Histogram("irs_wire_server_seconds", nil, obs.L("route", name))
	classes := [3]*obs.Counter{
		s.obsReg.Counter("irs_wire_server_requests_total", obs.L("route", name), obs.L("class", "2xx")),
		s.obsReg.Counter("irs_wire_server_requests_total", obs.L("route", name), obs.L("class", "4xx")),
		s.obsReg.Counter("irs_wire_server_requests_total", obs.L("route", name), obs.L("class", "5xx")),
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		lat.Observe(time.Since(start).Seconds())
		switch {
		case sw.status < 400:
			classes[0].Inc()
		case sw.status < 500:
			classes[1].Inc()
		default:
			classes[2].Inc()
		}
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// CodecWriter writes the 2xx answers of a server's hot routes, IRSW1
// or not as the request asks, and counts them by codec in
// <prefix>_codec_total{codec} and <prefix>_tx_bytes_total{codec}.
type CodecWriter struct {
	// codec/tx: index 0 JSON (any non-IRSW1 answer), 1 IRSW1.
	codec, tx [2]*obs.Counter
	// lengths interns the Content-Length values of the IRSW1 answers.
	lengths *lengthTable
}

// NewCodecWriter interns the writer's counters in reg under prefix
// (irs_wire_server at the ledger, irs_proxy_server at the proxy).
func NewCodecWriter(reg *obs.Registry, prefix string) CodecWriter {
	cw := CodecWriter{lengths: new(lengthTable)}
	for i, name := range [2]string{"json", "binary"} {
		l := obs.L("codec", name)
		cw.codec[i] = reg.Counter(prefix+"_codec_total", l)
		cw.tx[i] = reg.Counter(prefix+"_tx_bytes_total", l)
	}
	return cw
}

// Write answers r with 200. When encode is non-nil and r's Accept names
// IRSW1, the answer is the frame encode appends to a pooled buffer —
// the steady-state zero-allocation server encode path. Otherwise other
// writes the answer and returns its byte count, or -1 when it does not
// know it.
func (cw *CodecWriter) Write(w http.ResponseWriter, r *http.Request, encode func(dst []byte) []byte, other func() int) {
	i, n := 0, 0
	if encode != nil && AcceptsBinary(r) {
		bp := GetBuf()
		defer PutBuf(bp)
		*bp = encode(*bp)
		// Content-Length keeps a frame past net/http's 2 KB buffer from
		// going out chunked. Both values are shared, read-only slices:
		// the header costs no allocation.
		h := w.Header()
		h["Content-Type"] = binaryContentType
		h["Content-Length"] = cw.lengths.value(len(*bp))
		w.WriteHeader(http.StatusOK)
		i = 1
		n, _ = w.Write(*bp)
	} else {
		n = other()
	}
	cw.codec[i].Inc()
	if n >= 0 {
		cw.tx[i].Add(uint64(n))
	}
}

// binaryContentType is the Content-Type header value of every IRSW1
// answer, shared by all of them; net/http only reads it.
var binaryContentType = []string{ContentTypeBinary}

// lengthTable interns the Content-Length header values of a writer's
// IRSW1 answers by length, one slot per length modulo the table's
// size. A route's answers take a few dozen lengths (a status answer's
// is a function of the batch size), so past the first pages each
// answer finds its value here.
type lengthTable [512]atomic.Pointer[lengthValue]

type lengthValue struct {
	n int
	v []string
}

// value returns the Content-Length header value of an n-byte answer, a
// slice its callers share and must not modify.
func (t *lengthTable) value(n int) []string {
	slot := &t[n%len(t)]
	if e := slot.Load(); e != nil && e.n == n {
		return e.v
	}
	e := &lengthValue{n: n, v: []string{strconv.Itoa(n)}}
	slot.Store(e)
	return e.v
}

// ReadIDBatch reads the identifier batch of a POST to a batch route
// (/v1/status/batch with kind MsgStatusBatchReq, /v1/validate/batch
// with MsgValidateBatchReq): an IRSW1 frame of that kind when the
// request's Content-Type names IRSW1, else JSON {"ids":[…]}. The batch
// is read into dst's array, or into a new one of the batch's size when
// dst's is too small; a server passes pooled memory as dst, so it
// reads an IRSW1 batch without allocating. Every error is the caller's
// 400: a body that does not parse, an empty batch, or one over
// MaxStatusBatch.
func ReadIDBatch(r *http.Request, kind byte, dst []ids.PhotoID) ([]ids.PhotoID, error) {
	if IsBinaryContent(r.Header.Get("Content-Type")) {
		return readBinaryBatch(r.Body, kind, dst)
	}
	var req StatusBatchRequest
	if err := ReadJSON(r.Body, &req); err != nil {
		return nil, err
	}
	if len(req.IDs) == 0 {
		return nil, errors.New("wire: batch must name at least one id")
	}
	if err := CheckBatchSize(len(req.IDs)); err != nil {
		return nil, err
	}
	batch := dst[:0]
	if cap(batch) < len(req.IDs) {
		batch = make([]ids.PhotoID, 0, len(req.IDs))
	}
	for i, raw := range req.IDs {
		id, err := ids.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("wire: id %d: %w", i, err)
		}
		batch = append(batch, id)
	}
	return batch, nil
}

// readMsg reads an IRSW1 request body that must be one frame of kind
// want into a buffer borrowed with GetBuf, and returns the buffer and
// the message payload (aliasing it). The caller returns the buffer with
// PutBuf once it is done with the payload. Every error is the caller's
// 400.
func readMsg(body io.Reader, want byte) (*[]byte, []byte, error) {
	bp, err := ReadBody(body, maxBody)
	if err != nil {
		return nil, nil, ErrFrameTruncated
	}
	kind, payload, err := DecodeMsg(*bp, MaxFramePayload)
	if err == nil && kind != want {
		err = ErrFrameCorrupt
	}
	if err != nil {
		PutBuf(bp)
		return nil, nil, err
	}
	return bp, payload, nil
}

// readBinaryBatch parses an IRSW1 id-batch request body of the given
// message kind into dst's array.
func readBinaryBatch(body io.Reader, wantKind byte, dst []ids.PhotoID) ([]ids.PhotoID, error) {
	bp, payload, err := readMsg(body, wantKind)
	if err != nil {
		return nil, err
	}
	defer PutBuf(bp)
	return decodeIDBatch(dst, payload)
}

// handleClaim registers a photo. An IRSW1 request is decoded in place:
// its hash, key and signature alias the pooled body, which is safe
// because the ledger copies the key and signature it keeps.
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if IsBinaryContent(r.Header.Get("Content-Type")) {
		bp, payload, err := readMsg(r.Body, MsgClaimReq)
		if err == nil {
			defer PutBuf(bp)
			req, err = DecodeClaimReq(payload)
		}
		if err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
	} else if err := ReadJSON(r.Body, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.ContentHash) != 32 {
		WriteError(w, http.StatusBadRequest, "content hash must be 32 bytes")
		return
	}
	var hash [32]byte
	copy(hash[:], req.ContentHash)
	var receipt ledger.Receipt
	var err error
	if req.Custodial {
		receipt, err = s.ledger.CustodialClaim(hash, req.PubKey, req.HashSig)
	} else {
		receipt, err = s.ledger.Claim(hash, req.PubKey, req.HashSig, req.RevokedAtBirth)
	}
	if err != nil {
		WriteError(w, statusFor(err), err.Error())
		return
	}
	s.codec.Write(w, r, func(dst []byte) []byte { return EncodeClaimResp(dst, receipt) }, func() int {
		resp := &ClaimResponse{
			ID:        receipt.ID.String(),
			Timestamp: receipt.Timestamp.Marshal(),
		}
		if receipt.Proof != nil {
			resp.Proof = receipt.Proof.Marshal()
		}
		WriteJSON(w, http.StatusOK, resp)
		return -1
	})
}

// handleOp applies a signed owner op. An IRSW1 request is decoded in
// place: its signature aliases the pooled body, which the ledger only
// verifies.
func (s *Server) handleOp(w http.ResponseWriter, r *http.Request) {
	var (
		id  ids.PhotoID
		op  ledger.Op
		sig []byte
	)
	if IsBinaryContent(r.Header.Get("Content-Type")) {
		bp, payload, err := readMsg(r.Body, MsgOpReq)
		if err == nil {
			defer PutBuf(bp)
			id, op, sig, err = DecodeOpReq(payload)
		}
		if err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
	} else {
		var req OpRequest
		if err := ReadJSON(r.Body, &req); err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		var err error
		if id, err = ids.Parse(req.ID); err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		// op stays 0, refused below, unless req.Op names an op.
		if req.Op == int(ledger.OpRevoke) || req.Op == int(ledger.OpUnrevoke) {
			op = ledger.Op(req.Op)
		}
		sig = req.Sig
	}
	if op != ledger.OpRevoke && op != ledger.OpUnrevoke {
		WriteError(w, http.StatusBadRequest, "op must be 1 (revoke) or 2 (unrevoke)")
		return
	}
	if err := s.ledger.Apply(id, op, sig); err != nil {
		WriteError(w, statusFor(err), err.Error())
		return
	}
	s.codec.Write(w, r, EncodeOpResp, func() int {
		WriteJSON(w, http.StatusOK, struct{}{})
		return -1
	})
}

// statusScratch is one status batch request's working memory: the
// decoded ids and the ledger's scratch, which holds the proofs. The
// handler takes one from statusScratchPool and puts it back once its
// answer is written, the JSON one included; nothing of it outlives the
// request, since the encoders copy what they send.
type statusScratch struct {
	ids []ids.PhotoID
	sc  ledger.BatchScratch
}

var statusScratchPool = sync.Pool{New: func() any { return new(statusScratch) }}

func (s *Server) handleStatusBatch(w http.ResponseWriter, r *http.Request) {
	scr := statusScratchPool.Get().(*statusScratch)
	defer statusScratchPool.Put(scr)
	batch, err := ReadIDBatch(r, MsgStatusBatchReq, scr.ids)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	scr.ids = batch
	proofs, err := s.ledger.StatusBatchInto(&scr.sc, batch)
	if err != nil {
		WriteError(w, statusFor(err), err.Error())
		return
	}
	s.codec.Write(w, r, func(dst []byte) []byte { return EncodeStatusBatchResp(dst, proofs) }, func() int {
		resp := &StatusBatchResponse{Proofs: make([][]byte, len(proofs))}
		for i, p := range proofs {
			resp.Proofs[i] = p.Marshal()
		}
		WriteJSON(w, http.StatusOK, resp)
		return -1
	})
}

func (s *Server) handleSeq(w http.ResponseWriter, r *http.Request) {
	id, err := ids.Parse(r.URL.Query().Get("id"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	rec, err := s.ledger.Record(id)
	if err != nil {
		WriteError(w, statusFor(err), err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, &SeqQueryResponse{Seq: rec.OpSeq, State: rec.State.String()})
}

func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, &KeysResponse{
		LedgerID:     uint32(s.ledger.ID()),
		SigningKey:   s.ledger.SigningKey(),
		TimestampKey: s.ledger.TimestampKey(),
	})
}

func (s *Server) handleFilterSync(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "from must be an epoch number")
		return
	}
	// base is the hex SHA-256 of the caller's held filter; absent or
	// malformed just means "no valid base" and resolves to a snapshot.
	baseHash, err := hex.DecodeString(r.URL.Query().Get("base"))
	if err != nil {
		baseHash = nil
	}
	payload, latest, err := s.ledger.FilterSync(from, baseHash)
	if err != nil {
		WriteError(w, statusFor(err), err.Error())
		return
	}
	// IRSW1 carries the epoch in-band and CRC-protects the update
	// payload end to end; the octet stream needs the epoch header.
	s.codec.Write(w, r, func(dst []byte) []byte { return EncodeFilterSyncResp(dst, latest, payload) }, func() int {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-IRS-Epoch", strconv.FormatUint(latest, 10))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(payload)
		return len(payload)
	})
}

func (s *Server) handleAdminRevoke(w http.ResponseWriter, r *http.Request) {
	if s.adminToken == "" {
		WriteError(w, http.StatusForbidden, "admin surface disabled")
		return
	}
	auth := r.Header.Get("Authorization")
	want := "Bearer " + s.adminToken
	if subtle.ConstantTimeCompare([]byte(auth), []byte(want)) != 1 {
		WriteError(w, http.StatusUnauthorized, "bad admin token")
		return
	}
	var req AdminRevokeRequest
	if err := ReadJSON(r.Body, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	id, err := ids.Parse(req.ID)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.ledger.PermanentRevoke(id); err != nil {
		WriteError(w, statusFor(err), err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, struct{}{})
}

// statusFor maps ledger errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ledger.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ledger.ErrBadSignature), errors.Is(err, ledger.ErrBadOpSeq):
		return http.StatusForbidden
	case errors.Is(err, ledger.ErrNonRevocable), errors.Is(err, ledger.ErrPermanent):
		return http.StatusConflict
	case errors.Is(err, ledger.ErrNoSnapshot):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}
