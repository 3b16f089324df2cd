package wire

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"irs/internal/ids"
	"irs/internal/ledger"
)

// sinkWriter is the least http.ResponseWriter a handler can write to:
// a reused header map, a status and a byte count. It keeps net/http
// out of an allocation count.
type sinkWriter struct {
	header http.Header
	status int
	n      int
}

func (w *sinkWriter) Header() http.Header { return w.header }

func (w *sinkWriter) WriteHeader(code int) { w.status = code }

func (w *sinkWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// syntheticRequest is a POST of body to a batch route that asks for an
// IRSW1 answer, built once and replayed by serve without allocating:
// the handler's own allocations are all an allocation count sees.
type syntheticRequest struct {
	r    *http.Request
	body *bytes.Reader
	w    sinkWriter
}

// newSyntheticRequest wraps an IRSW1 request frame.
func newSyntheticRequest(frame []byte) *syntheticRequest {
	sr := &syntheticRequest{body: bytes.NewReader(frame), w: sinkWriter{header: http.Header{}}}
	sr.r = &http.Request{
		Method:     http.MethodPost,
		RemoteAddr: "192.0.2.1:4711",
		Header:     http.Header{"Content-Type": {ContentTypeBinary}, "Accept": {ContentTypeBinary}},
		Body:       io.NopCloser(sr.body),
	}
	return sr
}

// serve replays the request through h and returns the answer's status
// and length.
func (sr *syntheticRequest) serve(h http.HandlerFunc, frame []byte) (status, n int) {
	sr.body.Reset(frame)
	sr.w.status, sr.w.n = 0, 0
	h(&sr.w, sr.r)
	return sr.w.status, sr.w.n
}

// pageCost is what one call of f allocates at GOMAXPROCS 1: objects by
// testing.AllocsPerRun, bytes by the TotalAlloc delta over as many runs
// (each after one warm-up call, so pools hold what f returns to them).
func pageCost(runs int, f func()) (objects, bytes float64) {
	objects = testing.AllocsPerRun(runs, f)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return objects, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestStatusBatchHandlerAllocationBudget drives the ledger's status
// batch handler with a synthetic IRSW1 request, all memo hits: a 48-id
// page allocates no more objects than a 1-id page, and no more bytes
// than it and a constant. The ids, the proofs and the answer frame all
// come from pooled request scratch, so nothing the handler allocates
// grows with the page. The constant, 64 B, absorbs a stray allocation
// elsewhere in the process during the count; the smallest pooled array
// of a 48-id page, its ids, is 768 B.
func TestStatusBatchHandlerAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted without the race detector")
	}
	l, err := ledger.New(ledger.Config{ID: 1, Clock: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := NewServer(l, "")
	page := make([]ids.PhotoID, 48)
	for i := range page {
		page[i] = hostileID(t)
	}
	if _, err := l.StatusBatch(page); err != nil { // fills the memo
		t.Fatal(err)
	}
	signs := l.Metrics().ProofSigns
	cost := func(batch []ids.PhotoID) (objects, bytes float64) {
		frame := EncodeStatusBatchReq(nil, batch)
		sr := newSyntheticRequest(frame)
		want := frameHeader + 1 + 1 + len(batch)*ledger.ProofTailSize
		return pageCost(200, func() {
			if status, n := sr.serve(s.handleStatusBatch, frame); status != http.StatusOK || n != want {
				t.Fatalf("status %d, %d bytes; want 200 and %d", status, n, want)
			}
		})
	}
	objects1, bytes1 := cost(page[:1])
	objects48, bytes48 := cost(page)
	if m := l.Metrics(); m.ProofSigns != signs {
		t.Fatalf("%d proofs were signed; the budget is for memo hits", m.ProofSigns-signs)
	}
	t.Logf("status batch handler: 1 id %.0f objects %.0f B, 48 ids %.0f objects %.0f B",
		objects1, bytes1, objects48, bytes48)
	const slack = 64
	if objects48 > objects1 || bytes48 > bytes1+slack {
		t.Errorf("a 48-id page costs %.0f objects and %.0f B, a 1-id page %.0f and %.0f B; want no more objects and at most %d B more",
			objects48, bytes48, objects1, bytes1, slack)
	}
}

// TestClientSendsNoAcceptEncoding: no ledger route answers gzip, so
// hop 2 does not ask for it, on its IRSW1 routes or its JSON ones, and
// a JSON answer still decodes.
func TestClientSendsNoAcceptEncoding(t *testing.T) {
	l, err := ledger.New(ledger.Config{ID: 1, Clock: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var (
		mu   sync.Mutex
		seen []string
	)
	ls := NewServer(l, "")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.URL.Path+" "+r.Header.Get("Accept-Encoding"))
		mu.Unlock()
		ls.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, "")
	if _, err := c.StatusBatch([]ids.PhotoID{hostileID(t)}); err != nil {
		t.Fatal(err)
	}
	keys, err := c.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if keys.LedgerID != 1 || !bytes.Equal(keys.SigningKey, l.SigningKey()) {
		t.Fatalf("JSON keys answer decoded as %+v", keys)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"/v1/status/batch ", "/v1/keys "}
	if len(seen) != len(want) || seen[0] != want[0] || seen[1] != want[1] {
		t.Fatalf("requests (path and Accept-Encoding): %q, want %q", seen, want)
	}
}
