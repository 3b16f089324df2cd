package proxy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/wire"
)

// servedLedger is a fixed-clock ledger of n restored claims (every
// third revoked) behind a wire.Server, and a proxy with no filter in
// front of it over HTTP, so every id of a page resolves through hop 2
// unless cfg's cache holds it. want is each id's proof as the ledger
// marshals it; with the clock fixed, every proof either hop returns
// must equal it byte for byte.
type servedLedger struct {
	ledger    *ledger.Ledger
	ledgerURL string
	proxyURL  string
	ids       []ids.PhotoID
	want      map[ids.PhotoID][]byte
}

func newServedLedger(t *testing.T, n int, cfg Config) *servedLedger {
	t.Helper()
	l, err := ledger.New(ledger.Config{ID: 3, Clock: func() time.Time { return time.Unix(1700000000, 0).UTC() }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	recs := records(t, 3, n, func(i int) bool { return i%3 == 0 })
	if err := l.RestoreRecords(recs); err != nil {
		t.Fatal(err)
	}
	ledgerSrv := httptest.NewServer(wire.NewServer(l, ""))
	t.Cleanup(ledgerSrv.Close)
	dir := wire.NewDirectory()
	dir.Register(3, wire.NewClient(ledgerSrv.URL, ""))
	proxySrv := httptest.NewServer(NewServer(cfg, dir))
	t.Cleanup(proxySrv.Close)
	sl := &servedLedger{ledger: l, ledgerURL: ledgerSrv.URL, proxyURL: proxySrv.URL, want: map[ids.PhotoID][]byte{}}
	for _, rec := range recs {
		sl.ids = append(sl.ids, rec.ID)
	}
	proofs, err := l.StatusBatch(sl.ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range proofs {
		if p.State != recs[i].State {
			t.Fatalf("ledger answers %v for a %v claim", p.State, recs[i].State)
		}
		sl.want[p.ID] = p.Marshal()
	}
	return sl
}

// check reports how an answer for id, with the marshaled proof proof,
// differs from the ledger's own: it must carry the ledger's proof byte
// for byte, one that verifies under the ledger's key.
func (sl *servedLedger) check(id ids.PhotoID, state ledger.State, proof []byte) error {
	want := sl.want[id]
	if !bytes.Equal(proof, want) {
		return fmt.Errorf("%s: proof %x, want the ledger's %x", id, proof, want)
	}
	p, err := ledger.UnmarshalProof(proof)
	if err != nil {
		return err
	}
	if p.ID != id || p.State != state {
		return fmt.Errorf("%s: answered %v with a proof of (%s, %v)", id, state, p.ID, p.State)
	}
	return ledger.VerifyProof(sl.ledger.SigningKey(), p, time.Time{}, 0)
}

// post sends an IRSW1 frame to url and returns the answer with its body.
func post(t *testing.T, url string, frame []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	req.Header.Set("Accept", wire.ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, body)
	}
	return resp, body
}

// TestIRSW1AnswersAreContentLengthFramed: both servers answer a 48-proof
// IRSW1 page — past net/http's 2 KB response buffer — with a
// Content-Length equal to the frame's length, not chunked.
func TestIRSW1AnswersAreContentLengthFramed(t *testing.T) {
	sl := newServedLedger(t, 48, Config{})
	hops := []struct {
		name, url string
		frame     []byte
		count     func(payload []byte) (int, error)
	}{
		{"ledger status batch", sl.ledgerURL + "/v1/status/batch", wire.EncodeStatusBatchReq(nil, sl.ids),
			func(payload []byte) (int, error) {
				return wire.DecodeStatusBatchResp(payload, func(int, []byte) error { return nil })
			}},
		{"proxy validate batch", sl.proxyURL + "/v1/validate/batch", wire.EncodeValidateBatchReq(nil, sl.ids),
			func(payload []byte) (int, error) {
				return wire.DecodeValidateBatchResp(payload, func(_ int, v wire.ValidateWire) error {
					if v.Signed == nil {
						return fmt.Errorf("an answer without its proof")
					}
					return nil
				})
			}},
	}
	for _, hop := range hops {
		resp, body := post(t, hop.url, hop.frame)
		if len(body) <= 2048 {
			t.Fatalf("%s: a %d-byte answer fits net/http's buffer and shows nothing", hop.name, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: a %d-byte frame went out with Content-Length %d and Transfer-Encoding %q",
				hop.name, len(body), resp.ContentLength, resp.TransferEncoding)
		}
		_, payload, err := wire.DecodeMsg(body, wire.MaxFramePayload)
		if err != nil {
			t.Fatalf("%s: %v", hop.name, err)
		}
		if n, err := hop.count(payload); err != nil || n != len(sl.ids) {
			t.Errorf("%s: %d proofs (%v), want %d", hop.name, n, err, len(sl.ids))
		}
	}
}

// sliceService answers StatusBatch from fixed proofs into one reused
// slice, allocating nothing: the upstream of an allocation count that
// is about the proxy alone. It serves one call at a time.
type sliceService struct {
	wire.Service
	proofs map[ids.PhotoID]*ledger.StatusProof
	out    []*ledger.StatusProof
}

func (s *sliceService) StatusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	for i, id := range batch {
		s.out[i] = s.proofs[id]
	}
	return s.out[:len(batch)], nil
}

// sinkWriter is the least http.ResponseWriter a handler can write to:
// a reused header map, a status and a byte count, so net/http stays out
// of an allocation count.
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

// pageCost is what one call of f allocates at GOMAXPROCS 1: objects by
// testing.AllocsPerRun, bytes by the TotalAlloc delta over as many runs
// after one warm-up call.
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

// TestValidateBatchHandlerAllocationBudget drives the proxy's validate
// batch handler with a synthetic IRSW1 request and a minimal writer,
// no net/http in the loop, every id resolved by an upstream that
// allocates nothing. The page's ids, the must-query bookkeeping and the
// answer frame come from pooled scratch, so a 48-id page allocates no
// more objects than a 1-id page, and no more bytes than it plus the
// two per-id arrays a ValidateBatch call keeps as its own — the results
// it hands its caller, and the answers that waiters on its flights read
// after it returns — and a constant. The constant covers the allocator
// rounding those two arrays up to their size classes (256 B at 48 ids,
// with an 8-byte header each past 512 B); it is below the 768 B of the
// smallest pooled array, the page's ids.
func TestValidateBatchHandlerAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted without the race detector")
	}
	page := make([]ids.PhotoID, 48)
	svc := &sliceService{proofs: map[ids.PhotoID]*ledger.StatusProof{}, out: make([]*ledger.StatusProof, len(page))}
	slab := make([]ledger.StatusProof, len(page))
	for i := range page {
		page[i] = mustNewID(t, 1)
		slab[i] = ledger.StatusProof{ID: page[i], State: ledger.StateRevoked, IssuedAt: time.Unix(1700000000, 0).UTC()}
		svc.proofs[page[i]] = &slab[i]
	}
	dir := wire.NewDirectory()
	dir.Register(1, svc)
	s := NewServer(Config{}, dir)
	w := &sinkWriter{header: http.Header{}}
	body := bytes.NewReader(nil)
	r := &http.Request{
		Method:     http.MethodPost,
		RemoteAddr: "192.0.2.1:4711",
		Header:     http.Header{"Content-Type": {wire.ContentTypeBinary}, "Accept": {wire.ContentTypeBinary}},
		Body:       io.NopCloser(body),
	}
	cost := func(batch []ids.PhotoID) (objects, bytes float64) {
		frame := wire.EncodeValidateBatchReq(nil, batch)
		want := 8 + 1 + 1 + len(batch)*ledger.ProofTailSize
		return pageCost(200, func() {
			body.Reset(frame)
			w.status, w.n = 0, 0
			s.handleValidateBatch(w, r)
			if w.status != http.StatusOK || w.n != want {
				t.Fatalf("status %d, %d bytes; want 200 and %d", w.status, w.n, want)
			}
		})
	}
	objects1, bytes1 := cost(page[:1])
	objects48, bytes48 := cost(page)
	perID := float64(unsafe.Sizeof(Result{}) + unsafe.Sizeof(answer{}))
	t.Logf("validate batch handler: 1 id %.0f objects %.0f B, 48 ids %.0f objects %.0f B; results and answers %.0f B an id",
		objects1, bytes1, objects48, bytes48, perID)
	if objects48 > objects1 {
		t.Errorf("a 48-id page costs %.0f objects, a 1-id page %.0f; want no more", objects48, objects1)
	}
	const rounding = 512
	if budget := bytes1 + 47*perID + rounding; bytes48 > budget {
		t.Errorf("a 48-id page costs %.0f B, budget %.0f: a 1-id page's %.0f B, 47 more results and answers and %d B",
			bytes48, budget, bytes1, rounding)
	}
	if st := s.Validator().Stats(); st.LedgerQueries != st.Total {
		t.Fatalf("%d of %d ids were asked upstream; the budget is for a page the ledger answers", st.LedgerQueries, st.Total)
	}
}

// TestPooledPagesHammer sends concurrent pages through both servers,
// half of them IRSW1 through a Client and half JSON, drawn from one
// small population so they share flights, with a cache too small to
// hold it: page scratch, proof arrays and answer buffers are recycled
// between pages that overlap in time. Every answer must carry the
// ledger's own proof for the id asked, byte for byte.
func TestPooledPagesHammer(t *testing.T) {
	sl := newServedLedger(t, 96, Config{CacheCapacity: 16, CacheTTL: time.Minute, Stripes: 1})
	const workers, pages = 6, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			pc := NewClientHTTP(sl.proxyURL, wire.CodecBinary, http.DefaultClient)
			batch := make([]ids.PhotoID, 48)
			for p := 0; p < pages; p++ {
				for i := range batch {
					batch[i] = sl.ids[rng.Intn(len(sl.ids))]
				}
				if err := viewPage(sl, pc, batch, w%2 == 1); err != nil {
					t.Errorf("worker %d page %d: %v", w, p, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// viewPage asks the proxy for batch, through pc or as JSON, and checks
// every answer against the ledger.
func viewPage(sl *servedLedger, pc *Client, batch []ids.PhotoID, asJSON bool) error {
	if !asJSON {
		res, err := pc.ValidateBatch(batch)
		if err != nil {
			return err
		}
		for i, r := range res {
			if err := sl.check(batch[i], r.State, r.Proof); err != nil {
				return err
			}
		}
		return nil
	}
	req := &ValidateBatchRequest{}
	for _, id := range batch {
		req.IDs = append(req.IDs, id.String())
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := http.Post(sl.proxyURL+"/v1/validate/batch", wire.ContentTypeJSON, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	var resp ValidateBatchResponse
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		return fmt.Errorf("status %d: %v", r.StatusCode, err)
	}
	if len(resp.Results) != len(batch) {
		return fmt.Errorf("%d results for %d ids", len(resp.Results), len(batch))
	}
	for i, res := range resp.Results {
		p, err := ledger.UnmarshalProof(res.Proof)
		if err != nil {
			return err
		}
		if res.State != p.State.String() {
			return fmt.Errorf("%s: answered %s with a proof of %v", batch[i], res.State, p.State)
		}
		if err := sl.check(batch[i], p.State, res.Proof); err != nil {
			return err
		}
	}
	return nil
}
