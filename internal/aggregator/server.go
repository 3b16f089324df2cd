package aggregator

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"

	"irs/internal/ids"
	"irs/internal/photo"
	"irs/internal/wire"
)

// Server exposes an Aggregator over HTTP — the upload/serve surface a
// real content site would put in front of the §3.2 pipeline.
//
//	POST /v1/upload          body: IRSP container → UploadResponse
//	POST /v1/upload/batch    body: repeated [u32 length][IRSP container]
//	                           → BatchUploadResponse, processed through
//	                           the streaming pipeline
//	GET  /v1/photo?id=I      → IRSP container (with freshness proof in
//	                           metadata), 404/410 when absent/taken down
//	POST /v1/recheck         → RecheckResponse (operator endpoint)
//	GET  /v1/stats           → Metrics
type Server struct {
	agg *Aggregator
	mux *http.ServeMux
}

// UploadResponse is the JSON outcome of an upload.
type UploadResponse struct {
	Accepted  bool   `json:"accepted"`
	Reason    string `json:"reason"`
	ID        string `json:"id,omitempty"`
	Custodial bool   `json:"custodial,omitempty"`
}

// BatchUploadResponse reports one outcome per item of a batch upload,
// in input order.
type BatchUploadResponse struct {
	Results []BatchUploadItem `json:"results"`
}

// BatchUploadItem is one item's outcome inside a batch.
type BatchUploadItem struct {
	UploadResponse
	Error string `json:"error,omitempty"`
}

// RecheckResponse reports a recheck pass.
type RecheckResponse struct {
	TakenDown int `json:"taken_down"`
	Hosted    int `json:"hosted"`
}

// maxUploadBytes bounds photo uploads (64 MiB covers any synthetic
// photo this repository produces by orders of magnitude).
const maxUploadBytes = 64 << 20

// maxBatchFrames bounds the items of one batch upload. Every frame
// yields a result row whatever it holds, so without a bound the body
// limit alone would admit millions of them.
const maxBatchFrames = 1024

// NewServer wraps an aggregator.
func NewServer(a *Aggregator) *Server {
	s := &Server{agg: a, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/upload", s.handleUpload)
	s.mux.HandleFunc("POST /v1/upload/batch", s.handleUploadBatch)
	s.mux.HandleFunc("GET /v1/photo", s.handlePhoto)
	s.mux.HandleFunc("POST /v1/recheck", s.handleRecheck)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	im, err := photo.DecodeIRSP(io.LimitReader(r.Body, maxUploadBytes))
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, fmt.Sprintf("decoding upload: %v", err))
		return
	}
	res, err := s.agg.Upload(im)
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := &UploadResponse{
		Accepted:  res.Accepted,
		Reason:    res.Reason.String(),
		Custodial: res.Custodial,
	}
	if res.Accepted {
		resp.ID = res.ID.String()
	}
	status := http.StatusOK
	if !res.Accepted {
		// 422: the request was well-formed but the content is not
		// hostable under IRS policy.
		status = http.StatusUnprocessableEntity
	}
	wire.WriteJSON(w, status, resp)
}

// maxRetainBody is the largest batch body buffer bodyPool keeps: an
// album of this repository's photos is a few hundred KiB, and a rare
// huge one is not worth holding between requests.
const maxRetainBody = 1 << 20

// bodyChunk is the first capacity a batch body read gets when its
// buffer has none.
const bodyChunk = 32 << 10

// bodyPool recycles batch body buffers between requests. It is the
// aggregator's own: wire's codec pool holds 4 KiB frames, from which
// every album would regrow.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// readBatchBody reads a whole batch request body into buf[:0] and
// returns it, with whatever buf grew to even on error. A declared
// Content-Length is a claim: the buffer grows only as bytes arrive,
// doubling, up to that length (maxUploadBytes when none is declared),
// and a body that ends short of its declaration is an error.
func readBatchBody(r *http.Request, buf []byte) ([]byte, error) {
	if r.ContentLength > maxUploadBytes {
		return buf, fmt.Errorf("batch body of %d bytes exceeds limit", r.ContentLength)
	}
	limit := maxUploadBytes
	if r.ContentLength >= 0 {
		limit = int(r.ContentLength)
	}
	// One byte past the limit tells a body longer than allowed.
	src := io.LimitReader(r.Body, int64(limit)+1)
	body := buf[:0]
	for {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(max(len(body), bodyChunk), limit+1-len(body)))
		}
		n, err := src.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return body, fmt.Errorf("batch body: %w", err)
		}
	}
	if len(body) > limit {
		return body, fmt.Errorf("batch body exceeds its limit of %d bytes", limit)
	}
	if r.ContentLength >= 0 && len(body) < limit {
		return body, fmt.Errorf("batch body: %w after %d of %d declared bytes", io.ErrUnexpectedEOF, len(body), limit)
	}
	return body, nil
}

// splitBatch cuts a batch body into its frames (big-endian uint32
// length, then that many bytes), each a sub-slice of body. A length
// prefix is a claim by the sender: it is checked against the bytes that
// are really there before anything is sized by it.
func splitBatch(body []byte) ([]UploadItem, error) {
	var items []UploadItem
	for len(body) > 0 {
		if len(items) == maxBatchFrames {
			return nil, fmt.Errorf("batch holds more than %d frames", maxBatchFrames)
		}
		if len(body) < 4 {
			return nil, fmt.Errorf("batch frame %d: truncated header", len(items))
		}
		n := binary.BigEndian.Uint32(body)
		body = body[4:]
		if n == 0 {
			return nil, fmt.Errorf("batch frame %d is empty", len(items))
		}
		if uint64(n) > uint64(len(body)) {
			return nil, fmt.Errorf("batch frame %d claims %d bytes, body has %d left", len(items), n, len(body))
		}
		items = append(items, UploadItem{Raw: body[:n:n]})
		body = body[n:]
	}
	return items, nil
}

// handleUploadBatch accepts a concatenation of length-prefixed IRSP
// containers and ingests them with UploadAll as one album. Decoding
// happens in prepare, across the parallel pool; a malformed container
// fails only its own slot, a malformed framing the whole request.
func (s *Server) handleUploadBatch(w http.ResponseWriter, r *http.Request) {
	bp := bodyPool.Get().(*[]byte)
	body, err := readBatchBody(r, *bp)
	// The frames are parsed in place, so the buffer goes back only once
	// UploadAll has returned — this runs after the handler's last line.
	// By then nothing reads it: UploadAll returns after every prepare
	// and every status call has returned and every item has committed;
	// commit copies every image it hosts, and the parser copies
	// metadata strings.
	defer func() {
		if cap(body) <= maxRetainBody {
			*bp = body[:0]
			bodyPool.Put(bp)
		}
	}()
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	items, err := splitBatch(body)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	results := s.agg.UploadAll(r.Context(), items)
	resp := &BatchUploadResponse{Results: make([]BatchUploadItem, len(results))}
	for i, res := range results {
		item := &resp.Results[i]
		if res.Err != nil {
			item.Error = res.Err.Error()
			continue
		}
		item.Accepted = res.Result.Accepted
		item.Reason = res.Result.Reason.String()
		item.Custodial = res.Result.Custodial
		if res.Result.Accepted {
			item.ID = res.Result.ID.String()
		}
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePhoto(w http.ResponseWriter, r *http.Request) {
	id, err := ids.Parse(r.URL.Query().Get("id"))
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	im, err := s.agg.Serve(id)
	switch {
	case err == nil:
	case err == ErrNotHosted:
		wire.WriteError(w, http.StatusNotFound, err.Error())
		return
	case err == ErrTakenDown:
		// 410 Gone: hosted once, revoked since.
		wire.WriteError(w, http.StatusGone, err.Error())
		return
	default:
		wire.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	var buf bytes.Buffer
	if err := photo.EncodeIRSP(&buf, im); err != nil {
		wire.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-irsp")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleRecheck(w http.ResponseWriter, r *http.Request) {
	down, err := s.agg.RecheckAll()
	if err != nil {
		wire.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, &RecheckResponse{TakenDown: down, Hosted: s.agg.HostedCount()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	m := s.agg.MetricsSnapshot()
	out := map[string]any{
		"uploads":    m.Uploads,
		"accepted":   m.Accepted,
		"rechecks":   m.Rechecks,
		"taken_down": m.TakenDown,
		"hosted":     s.agg.HostedCount(),
	}
	denied := map[string]uint64{}
	for reason, n := range m.Denied {
		denied[reason.String()] = n
	}
	out["denied"] = denied
	wire.WriteJSON(w, http.StatusOK, out)
}
