package proxy

import (
	"net/http"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/wire"
)

// Server exposes a Validator over HTTP — the service a browser
// extension points at. Like the ledger's wire.Server it speaks both
// codecs on the hot routes, chosen per request: JSON always, IRSW1
// when the request's Content-Type or Accept names it.
//
//	GET  /v1/validate?id=I  → ValidateResponse
//	POST /v1/validate/batch → ValidateBatchResponse (page-load fan-in)
//	POST /v1/refresh        → re-pull ledger filters (operator endpoint)
//	GET  /v1/stats          → StatsSnapshot
type Server struct {
	v   *Validator
	dir *wire.Directory
	mux *http.ServeMux
	// codecCtr/txBytes split hot-route responses by encoding: index 0
	// JSON, 1 IRSW1.
	codecCtr [2]*obs.Counter
	txBytes  [2]*obs.Counter
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
	s.v = NewValidator(cfg, func(id ids.PhotoID) (*ledger.StatusProof, error) {
		c, err := dir.For(id)
		if err != nil {
			return nil, err
		}
		return c.Status(id)
	})
	s.v.SetBatchQuery(func(lid ids.LedgerID, batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
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
	reg := s.v.Registry()
	for i, name := range [2]string{"json", "binary"} {
		l := obs.L("codec", name)
		s.codecCtr[i] = reg.Counter("irs_proxy_server_codec_total", l)
		s.txBytes[i] = reg.Counter("irs_proxy_server_tx_bytes_total", l)
	}
	return s
}

// observeCodec records one hot-route response's encoding; n < 0 means
// the byte count is unknown.
func (s *Server) observeCodec(binary bool, n int) {
	i := 0
	if binary {
		i = 1
	}
	s.codecCtr[i].Inc()
	if n >= 0 {
		s.txBytes[i].Add(uint64(n))
	}
}

// writeBinary writes one IRSW1 response frame built by encode into a
// pooled buffer.
func (s *Server) writeBinary(w http.ResponseWriter, encode func(dst []byte) []byte) {
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	*bp = encode(*bp)
	w.Header().Set("Content-Type", wire.ContentTypeBinary)
	w.WriteHeader(http.StatusOK)
	n, _ := w.Write(*bp)
	s.observeCodec(true, n)
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
		if st := wire.ErrStatus(err); st != 0 {
			wire.WriteError(w, st, err.Error())
			return
		}
		wire.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	if wire.AcceptsBinary(r) {
		s.writeBinary(w, func(dst []byte) []byte {
			return wire.EncodeValidateResp(dst, byte(res.State), byte(res.Source),
				res.State == ledger.StateActive, res.Proof)
		})
		return
	}
	s.observeCodec(false, -1)
	resp := &ValidateResponse{
		State:       res.State.String(),
		Source:      res.Source.String(),
		Displayable: res.State == ledger.StateActive,
	}
	if res.Proof != nil {
		resp.Proof = res.Proof.Marshal()
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// ValidateBatchRequest is a page worth of identifiers; the extension
// sends one of these per page instead of one GET per image.
type ValidateBatchRequest struct {
	IDs []string `json:"ids"`
}

// ValidateBatchResponse answers each requested identifier in order.
type ValidateBatchResponse struct {
	Results []ValidateResponse `json:"results"`
}

func (s *Server) handleValidateBatch(w http.ResponseWriter, r *http.Request) {
	var batch []ids.PhotoID
	if wire.IsBinaryContent(r.Header.Get("Content-Type")) {
		var err error
		batch, err = wire.ReadBinaryBatch(r.Body, wire.MsgValidateBatchReq)
		if err != nil {
			wire.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
	} else {
		var req ValidateBatchRequest
		if err := wire.ReadJSON(r.Body, &req); err != nil {
			wire.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		if len(req.IDs) == 0 {
			wire.WriteError(w, http.StatusBadRequest, "batch must name at least one id")
			return
		}
		if len(req.IDs) > wire.MaxStatusBatch {
			wire.WriteError(w, http.StatusBadRequest, "batch exceeds limit")
			return
		}
		batch = make([]ids.PhotoID, len(req.IDs))
		for i, raw := range req.IDs {
			id, err := ids.Parse(raw)
			if err != nil {
				wire.WriteError(w, http.StatusBadRequest, err.Error())
				return
			}
			batch[i] = id
		}
	}
	if !s.admit(w, r, len(batch)) {
		return
	}
	results, err := s.v.ValidateBatch(batch)
	if err != nil {
		if st := wire.ErrStatus(err); st != 0 {
			wire.WriteError(w, st, err.Error())
			return
		}
		wire.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	if wire.AcceptsBinary(r) {
		s.writeBinary(w, func(dst []byte) []byte {
			return wire.EncodeValidateBatchResp(dst, len(results),
				func(i int) (byte, byte, bool, *ledger.StatusProof) {
					res := results[i]
					return byte(res.State), byte(res.Source),
						res.State == ledger.StateActive, res.Proof
				})
		})
		return
	}
	s.observeCodec(false, -1)
	resp := &ValidateBatchResponse{Results: make([]ValidateResponse, len(results))}
	for i, res := range results {
		resp.Results[i] = ValidateResponse{
			State:       res.State.String(),
			Source:      res.Source.String(),
			Displayable: res.State == ledger.StateActive,
		}
		if res.Proof != nil {
			resp.Results[i].Proof = res.Proof.Marshal()
		}
	}
	wire.WriteJSON(w, http.StatusOK, resp)
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
