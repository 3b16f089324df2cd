package wire

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
)

// TestStatusBatchOverHTTP is the happy path: proofs come back in
// request order, each verifiable against the ledger's signing key.
func TestStatusBatchOverHTTP(t *testing.T) {
	env := newEnv(t, ledger.Config{}, "")
	k := newKeypair(t)
	var batch []ids.PhotoID
	for i := 0; i < 5; i++ {
		batch = append(batch, k.claimVia(t, env.client, fmt.Sprintf("batch-%d", i), i%2 == 0).ID)
	}
	batch = append(batch, batch[0]) // duplicates are legal

	proofs, err := env.client.StatusBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(proofs) != len(batch) {
		t.Fatalf("got %d proofs for %d ids", len(proofs), len(batch))
	}
	for i, p := range proofs {
		if p.ID != batch[i] {
			t.Errorf("proof %d attests %v, want %v", i, p.ID, batch[i])
		}
		want := ledger.StateActive
		if i%2 == 0 && i < 5 {
			want = ledger.StateRevoked
		}
		if i == 5 {
			want = ledger.StateRevoked // duplicate of batch[0]
		}
		if p.State != want {
			t.Errorf("proof %d state %v, want %v", i, p.State, want)
		}
		if err := ledger.VerifyProof(env.ledger.SigningKey(), p, p.IssuedAt, time.Minute); err != nil {
			t.Errorf("proof %d does not verify: %v", i, err)
		}
	}
	// Empty input short-circuits without a round trip.
	if ps, err := env.client.StatusBatch(nil); err != nil || ps != nil {
		t.Errorf("empty batch: %v, %v", ps, err)
	}
}

// TestStatusBatchClientAgainstHostileServers: short proof lists, wrong
// identifiers, and garbage proof bytes must all be errors, never
// fabricated validations.
func TestStatusBatchClientAgainstHostileServers(t *testing.T) {
	id := hostileID(t)
	other := hostileID(t)
	legit, err := ledger.New(ledger.Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer legit.Close()
	rightProof, err := legit.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	wrongProof, err := legit.Status(other)
	if err != nil {
		t.Fatal(err)
	}
	garbageProof := BeginFrame(nil)
	garbageProof = append(garbageProof, MsgStatusBatchResp, 1, 2, 0, 'h', 'i')
	garbageProof = FinishFrame(garbageProof, 0)

	responses := []struct {
		name string
		body []byte
	}{
		{"garbage frame", []byte("not a frame")},
		{"empty proof list", EncodeStatusBatchResp(nil, nil)},
		{"too many proofs", EncodeStatusBatchResp(nil, []*ledger.StatusProof{rightProof, rightProof})},
		{"garbage proof bytes", garbageProof},
		{"a count with no tail", FinishFrame(append(BeginFrame(nil), MsgStatusBatchResp, 1), 0)},
	}
	for _, tc := range responses {
		srv := hostileServer(t, http.StatusOK, ContentTypeBinary, string(tc.body), nil)
		c := NewClient(srv.URL, "")
		if ps, err := c.StatusBatch([]ids.PhotoID{id}); err == nil || ps != nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The frame does not repeat the id, so the tail of another id's
	// proof decodes as a proof of the id asked about — one its signature
	// refutes wherever proofs are checked.
	srv := hostileServer(t, http.StatusOK, ContentTypeBinary,
		string(EncodeStatusBatchResp(nil, []*ledger.StatusProof{wrongProof})), nil)
	ps, err := NewClient(srv.URL, "").StatusBatch([]ids.PhotoID{id})
	if err != nil || ps[0].ID != id || ledger.VerifyProof(legit.SigningKey(), ps[0], time.Time{}, 0) == nil {
		t.Errorf("proof for the wrong id: %+v (%v) verifies as a proof of %s", ps, err, id)
	}
}

// TestClientRefusesUndefinedState: a proof for the right identifier
// whose state byte names no state (a buggy or byzantine ledger) is an
// error on both status RPCs, not an answer a proxy would cache for its
// TTL and a viewer's whole page would then choke on.
func TestClientRefusesUndefinedState(t *testing.T) {
	id := hostileID(t)
	legit, err := ledger.New(ledger.Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer legit.Close()
	p, err := legit.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	good := p.AppendTail(nil)
	bad := p.AppendTail(nil)
	bad[0] = 9
	// The frame is re-finished so the swapped proof passes the CRC.
	batchFrame := func(raw []byte) string {
		frame := bytes.Replace(EncodeStatusBatchResp(nil, []*ledger.StatusProof{p}), good, raw, 1)
		return string(FinishFrame(frame, 0))
	}
	for _, wantErr := range []bool{false, true} {
		raw := good
		if wantErr {
			raw = bad
		}
		c := NewClient(hostileServer(t, http.StatusOK, ContentTypeBinary, batchFrame(raw), nil).URL, "")
		if _, err := c.StatusBatch([]ids.PhotoID{id}); (err != nil) != wantErr {
			t.Errorf("StatusBatch, undefined state %v: err = %v", wantErr, err)
		}
		c = NewClient(hostileServer(t, http.StatusOK, ContentTypeBinary, batchFrame(raw), nil).URL, "")
		if _, err := c.Status(id); (err != nil) != wantErr {
			t.Errorf("Status, undefined state %v: err = %v", wantErr, err)
		}
	}
}

// TestStatusBatchDecodeAllocationBudget: decoding a page-sized hop-2
// frame costs the batch's proof array and the pointer slice over it (and
// the walk's closure), not two objects a proof — measured on the decode
// step itself, so net/http's own allocations stay out of the count.
func TestStatusBatchDecodeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted without the race detector")
	}
	l, err := ledger.New(ledger.Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	batch := make([]ids.PhotoID, 37)
	for i := range batch {
		batch[i] = hostileID(t)
	}
	want, err := l.StatusBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, err := DecodeMsg(EncodeStatusBatchResp(nil, want), MaxFramePayload)
	if err != nil {
		t.Fatal(err)
	}
	var got []*ledger.StatusProof
	allocs := testing.AllocsPerRun(100, func() {
		if got, err = decodeStatusBatch(payload, batch); err != nil {
			t.Fatal(err)
		}
	})
	for i := range want {
		if *got[i] != *want[i] {
			t.Fatalf("proof %d decoded as %+v, want %+v", i, got[i], want[i])
		}
	}
	if allocs > 4 {
		t.Errorf("decoding %d proofs: %.0f allocations, budget 4", len(batch), allocs)
	}
	t.Logf("decoding %d proofs: %.0f allocations", len(batch), allocs)
}

// TestReadBinaryBatchSizedByFrame: the shared id-batch reader sizes an
// IRSW1 batch's identifier slice by the count the validated frame
// carries, not by the largest batch the protocol allows.
func TestReadBinaryBatchSizedByFrame(t *testing.T) {
	for _, n := range []int{1, 48, MaxStatusBatch} {
		want := make([]ids.PhotoID, n)
		for i := range want {
			want[i] = hostileID(t)
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/status/batch", bytes.NewReader(EncodeStatusBatchReq(nil, want)))
		r.Header.Set("Content-Type", ContentTypeBinary)
		got, err := ReadIDBatch(r, MsgStatusBatchReq, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n || cap(got) != n {
			t.Errorf("batch of %d read into len %d cap %d", n, len(got), cap(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch of %d: id %d differs", n, i)
			}
		}
	}
}

// TestLoopbackStatusBatchBound: the in-process adapter enforces the
// same limit as the HTTP surface.
func TestLoopbackStatusBatchBound(t *testing.T) {
	l, err := ledger.New(ledger.Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lb := &Loopback{L: l}
	if _, err := lb.StatusBatch(make([]ids.PhotoID, MaxStatusBatch+1)); err == nil {
		t.Error("oversized loopback batch accepted")
	}
}
