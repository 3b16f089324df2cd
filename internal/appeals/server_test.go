package appeals

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"irs/internal/ledger"
	"irs/internal/photo"
)

func encodeIRSP(t *testing.T, im *photo.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := photo.EncodeIRSP(&buf, im); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postComplaint(t *testing.T, url string, req *ComplaintRequest) (*VerdictResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/appeal", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out VerdictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return &out, resp.StatusCode
}

func TestAppealOverHTTPUpheld(t *testing.T) {
	r := newAttackRig(t, false)
	orig, owned, attackCopy, attackID := r.runAttack(t, 60, nil)

	srv := httptest.NewServer(NewServer(r.adj.Decide))
	defer srv.Close()

	v, code := postComplaint(t, srv.URL, &ComplaintRequest{
		Original:       encodeIRSP(t, orig),
		OriginalToken:  owned.Receipt.Timestamp.Marshal(),
		OriginalLedger: 1,
		Copy:           encodeIRSP(t, attackCopy),
		ContestedID:    attackID.String(),
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !v.Upheld || v.Outcome != "upheld" {
		t.Fatalf("verdict %+v", v)
	}
	p, err := r.attackerLedger.Status(attackID)
	if err != nil {
		t.Fatal(err)
	}
	if p.State != ledger.StatePermanentlyRevoked {
		t.Errorf("state after HTTP appeal: %v", p.State)
	}
}

func TestAppealOverHTTPRejectsFraming(t *testing.T) {
	r := newAttackRig(t, false)
	_, _, attackCopy, attackID := r.runAttack(t, 61, nil)
	// Unrelated complainant with valid evidence for a different photo.
	unrelated := r.victim.Shoot(9999, 192, 128)
	_, unrelOwned, err := r.victim.ClaimAndLabel(unrelated)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(r.adj.Decide))
	defer srv.Close()
	v, code := postComplaint(t, srv.URL, &ComplaintRequest{
		Original:       encodeIRSP(t, unrelated),
		OriginalToken:  unrelOwned.Receipt.Timestamp.Marshal(),
		OriginalLedger: 1,
		Copy:           encodeIRSP(t, attackCopy),
		ContestedID:    attackID.String(),
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if v.Upheld {
		t.Fatalf("framing upheld over HTTP: %+v", v)
	}
}

func TestAppealOverHTTPBadInputs(t *testing.T) {
	r := newAttackRig(t, false)
	srv := httptest.NewServer(NewServer(r.adj.Decide))
	defer srv.Close()

	for name, body := range map[string]string{
		"not json":  "{{{",
		"empty":     "{}",
		"bad image": `{"original":"aGk=","original_token":"aGk=","copy":"aGk=","contested_id":"x"}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/appeal", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}
