package proxy

import (
	"net/http"
	"sync"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/wire"
)

// Server exposes a Validator over HTTP — the service a browser
// extension points at. Like the ledger's wire.Server it speaks both
// codecs on its batch route, chosen per request: JSON always, IRSW1
// when the request's Content-Type or Accept names it. The single-image
// route answers JSON only.
//
//	GET  /v1/validate?id=I  → ValidateResponse
//	POST /v1/validate/batch → ValidateBatchResponse (page-load fan-in)
//	POST /v1/refresh        → re-pull ledger filters (operator endpoint)
//	GET  /v1/stats          → StatsSnapshot
type Server struct {
	v     *Validator
	dir   *wire.Directory
	mux   *http.ServeMux
	codec wire.CodecWriter
}

// ValidateResponse is the proxy's answer to a browser.
type ValidateResponse struct {
	// State is the ledger.State string form.
	State string `json:"state"`
	// Source reports filter/cache/ledger.
	Source string `json:"source"`
	// Displayable is the policy outcome the extension acts on.
	Displayable bool `json:"displayable"`
	// Proof carries the marshaled ledger proof when one exists.
	Proof []byte `json:"proof,omitempty"`
}

// NewServer wires a Validator whose misses resolve through dir.
func NewServer(cfg Config, dir *wire.Directory) *Server {
	s := &Server{dir: dir, mux: http.NewServeMux()}
	s.v = NewValidator(cfg, func(lid ids.LedgerID, batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
		c, err := dir.ForLedger(lid)
		if err != nil {
			return nil, err
		}
		return c.StatusBatch(batch)
	})
	s.mux.HandleFunc("GET /v1/validate", s.handleValidate)
	s.mux.HandleFunc("POST /v1/validate/batch", s.handleValidateBatch)
	s.mux.HandleFunc("POST /v1/refresh", s.handleRefresh)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.codec = wire.NewCodecWriter(s.v.Registry(), "irs_proxy_server")
	return s
}

// Validator exposes the core for tests and operators.
func (s *Server) Validator() *Validator { return s.v }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// admit runs admission control for one request of cost n; on denial it
// answers 429 and reports false. Admission happens before the
// validator sees the request, so denied traffic never touches the
// outcome counters (nor the upstream ledgers — the point).
func (s *Server) admit(w http.ResponseWriter, r *http.Request, n int) bool {
	if s.v.Admit(ClientKey(r.RemoteAddr, r.Header.Get(ClientHeader)), n) {
		return true
	}
	wire.WriteError(w, http.StatusTooManyRequests, "proxy: client over admission rate")
	return false
}

// writeValidateErr answers a failed validation: the upstream ledger's
// protocol status when it sent one, else 502.
func writeValidateErr(w http.ResponseWriter, err error) {
	st := wire.ErrStatus(err)
	if st == 0 {
		st = http.StatusBadGateway
	}
	wire.WriteError(w, st, err.Error())
}

// validateResponse is one answer in its JSON form.
func validateResponse(res Result) ValidateResponse {
	vr := ValidateResponse{
		State:       res.State.String(),
		Source:      res.Source.String(),
		Displayable: res.State == ledger.StateActive,
	}
	if res.Proof != nil {
		vr.Proof = res.Proof.Marshal()
	}
	return vr
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r, 1) {
		return
	}
	id, err := ids.Parse(r.URL.Query().Get("id"))
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, err := s.v.Validate(id)
	if err != nil {
		writeValidateErr(w, err)
		return
	}
	s.codec.Write(w, r, nil, func() int {
		vr := validateResponse(res)
		wire.WriteJSON(w, http.StatusOK, &vr)
		return -1
	})
}

// ValidateBatchRequest is a page worth of identifiers; the extension
// sends one of these per page instead of one GET per image. It is
// wire.StatusBatchRequest's shape, which wire.ReadIDBatch reads for
// both batch routes.
type ValidateBatchRequest struct {
	IDs []string `json:"ids"`
}

// ValidateBatchResponse answers each requested identifier in order.
type ValidateBatchResponse struct {
	Results []ValidateResponse `json:"results"`
}

// pagePool recycles the id slices handleValidateBatch decodes a page
// into. A slice goes back once the answer is written, the JSON one
// included; the validator keeps nothing of the page it is handed.
var pagePool = sync.Pool{New: func() any { return new([]ids.PhotoID) }}

func (s *Server) handleValidateBatch(w http.ResponseWriter, r *http.Request) {
	page := pagePool.Get().(*[]ids.PhotoID)
	defer pagePool.Put(page)
	batch, err := wire.ReadIDBatch(r, wire.MsgValidateBatchReq, *page)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	*page = batch
	if !s.admit(w, r, len(batch)) {
		return
	}
	results, err := s.v.ValidateBatch(batch)
	if err != nil {
		writeValidateErr(w, err)
		return
	}
	s.codec.Write(w, r, func(dst []byte) []byte {
		return wire.EncodeValidateBatchResp(dst, len(results),
			func(i int) (byte, byte, *ledger.StatusProof) {
				res := results[i]
				return byte(res.State), byte(res.Source), res.Proof
			})
	}, func() int {
		resp := &ValidateBatchResponse{Results: make([]ValidateResponse, len(results))}
		for i, res := range results {
			resp.Results[i] = validateResponse(res)
		}
		wire.WriteJSON(w, http.StatusOK, resp)
		return -1
	})
}

// handleRefresh costs the caller one admission token per registered
// ledger: that is the upstream fan-out one refresh can cause.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r, len(s.dir.All())) {
		return
	}
	if err := s.v.RefreshFilters(s.dir); err != nil {
		wire.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, s.v.Stats())
}
