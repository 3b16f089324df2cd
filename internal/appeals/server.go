package appeals

import (
	"bytes"
	"net/http"

	"irs/internal/ids"
	"irs/internal/photo"
	"irs/internal/tsa"
	"irs/internal/wire"
)

// Server exposes a complaint desk over HTTP — a ledger's (§3.2: "the
// original owner can lodge a complaint against the ledger on which the
// copy has been claimed") or a site's (Adjudicator.Decide or
// SiteAdjudicator.Decide). The endpoint is public (any owner may
// complain; the evidence requirements do the gatekeeping).
//
//	POST /v1/appeal   body ComplaintRequest → VerdictResponse
type Server struct {
	decide func(*Complaint) (Verdict, error)
	mux    *http.ServeMux
}

// ComplaintRequest is the wire form of a Complaint. Images travel as
// IRSP containers.
type ComplaintRequest struct {
	// Original is the complainant's photo, IRSP-encoded.
	Original []byte `json:"original"`
	// OriginalToken is the marshaled claim timestamp token.
	OriginalToken []byte `json:"original_token"`
	// OriginalLedger names the ledger whose timestamp key verifies the
	// token.
	OriginalLedger uint32 `json:"original_ledger"`
	// Copy is the contested photo as found circulating, IRSP-encoded.
	Copy []byte `json:"copy"`
	// ContestedID is the claim under which the copy circulates (at a
	// site, the id it hosts the copy under).
	ContestedID string `json:"contested_id"`
}

// VerdictResponse is the adjudication outcome.
type VerdictResponse struct {
	Outcome    string  `json:"outcome"`
	Upheld     bool    `json:"upheld"`
	Similarity float64 `json:"similarity"`
	Detail     string  `json:"detail"`
}

// NewServer serves the desk whose Decide is decide.
func NewServer(decide func(*Complaint) (Verdict, error)) *Server {
	s := &Server{decide: decide, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/appeal", s.handleAppeal)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleAppeal(w http.ResponseWriter, r *http.Request) {
	var req ComplaintRequest
	if err := wire.ReadJSON(r.Body, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	orig, err := photo.DecodeIRSP(bytes.NewReader(req.Original))
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "decoding original: "+err.Error())
		return
	}
	copyImg, err := photo.DecodeIRSP(bytes.NewReader(req.Copy))
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "decoding copy: "+err.Error())
		return
	}
	tok, err := tsa.Unmarshal(req.OriginalToken)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "decoding timestamp token: "+err.Error())
		return
	}
	contested, err := ids.Parse(req.ContestedID)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "contested id: "+err.Error())
		return
	}
	v, err := s.decide(&Complaint{
		Original:       orig,
		OriginalToken:  tok,
		OriginalLedger: ids.LedgerID(req.OriginalLedger),
		Copy:           copyImg,
		ContestedID:    contested,
	})
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, &VerdictResponse{
		Outcome:    v.Outcome.String(),
		Upheld:     v.Outcome == Upheld,
		Similarity: v.Similarity,
		Detail:     v.Detail,
	})
}
