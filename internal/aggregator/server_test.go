package aggregator

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"irs/internal/photo"
)

func postUpload(t *testing.T, srv *httptest.Server, im *photo.Image) (*UploadResponse, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := photo.EncodeIRSP(&buf, im); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/upload", "application/x-irsp", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

func TestServerUploadServeRecheck(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	srv := httptest.NewServer(NewServer(r.agg))
	defer srv.Close()

	labeled, owned, err := r.cam.ClaimAndLabel(r.cam.Shoot(50, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	// Upload over HTTP.
	up, code := postUpload(t, srv, labeled)
	if code != http.StatusOK || !up.Accepted || up.ID != owned.ID.String() {
		t.Fatalf("upload: %d %+v", code, up)
	}

	// Serve over HTTP: IRSP body with proof metadata.
	resp, err := http.Get(srv.URL + "/v1/photo?id=" + owned.ID.String())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("photo status %d", resp.StatusCode)
	}
	served, err := photo.DecodeIRSP(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if served.Meta.Get(photo.KeyIRSProof) == "" {
		t.Error("served photo missing freshness proof")
	}
	if !served.Equal(labeled) {
		t.Error("served pixels differ from upload")
	}

	// Revoke, recheck over HTTP, then the photo is gone.
	if err := r.cam.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/recheck", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rc RecheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&rc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rc.TakenDown != 1 || rc.Hosted != 0 {
		t.Errorf("recheck: %+v", rc)
	}
	resp, err = http.Get(srv.URL + "/v1/photo?id=" + owned.ID.String())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("after takedown status %d, want 404", resp.StatusCode)
	}
}

func TestServerDeniesOverHTTP(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	srv := httptest.NewServer(NewServer(r.agg))
	defer srv.Close()

	up, code := postUpload(t, srv, photo.Synth(51, 192, 128))
	if code != http.StatusUnprocessableEntity || up.Accepted || up.Reason != "unlabeled" {
		t.Errorf("unlabeled upload: %d %+v", code, up)
	}

	// Garbage body.
	resp, err := http.Post(srv.URL+"/v1/upload", "application/x-irsp", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage upload status %d", resp.StatusCode)
	}

	// Bad id on photo fetch.
	resp, err = http.Get(srv.URL + "/v1/photo?id=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status %d", resp.StatusCode)
	}
}

func TestServerStats(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	srv := httptest.NewServer(NewServer(r.agg))
	defer srv.Close()
	if _, code := postUpload(t, srv, photo.Synth(52, 192, 128)); code != http.StatusUnprocessableEntity {
		t.Fatalf("setup upload code %d", code)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["uploads"].(float64) != 1 {
		t.Errorf("stats: %+v", stats)
	}
	denied := stats["denied"].(map[string]any)
	if denied["unlabeled"].(float64) != 1 {
		t.Errorf("denied map: %+v", denied)
	}
}

func TestServerStaleServeGone(t *testing.T) {
	// After RecheckInterval passes and the photo was revoked, GET returns
	// 410 Gone.
	now := timeAt(0)
	r := newRig(t, RejectUnlabeled, func() time.Time { return now })
	srv := httptest.NewServer(NewServer(r.agg))
	defer srv.Close()
	labeled, owned, err := r.cam.ClaimAndLabel(r.cam.Shoot(53, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if up, code := postUpload(t, srv, labeled); code != http.StatusOK {
		t.Fatalf("upload %d %+v", code, up)
	}
	if err := r.cam.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Hour) // past the 1h proof window
	resp, err := http.Get(srv.URL + "/v1/photo?id=" + owned.ID.String())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("stale revoked serve status %d, want 410", resp.StatusCode)
	}
}

func TestServerBatchUpload(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	srv := httptest.NewServer(NewServer(r.agg))
	defer srv.Close()

	labeled, owned, err := r.cam.ClaimAndLabel(r.cam.Shoot(55, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := photo.EncodeIRSP(&frame, labeled); err != nil {
		t.Fatal(err)
	}
	// Frames: good upload, garbage container, unlabeled photo.
	var body bytes.Buffer
	writeFrame := func(blob []byte) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(blob)))
		body.Write(hdr[:])
		body.Write(blob)
	}
	writeFrame(frame.Bytes())
	writeFrame([]byte("garbage"))
	var unl bytes.Buffer
	if err := photo.EncodeIRSP(&unl, photo.Synth(56, 64, 48)); err != nil {
		t.Fatal(err)
	}
	writeFrame(unl.Bytes())

	resp, err := http.Post(srv.URL+"/v1/upload/batch", "application/x-irsp-batch", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out BatchUploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results, want 3", len(out.Results))
	}
	if !out.Results[0].Accepted || out.Results[0].ID != owned.ID.String() {
		t.Errorf("item 0: %+v", out.Results[0])
	}
	if out.Results[1].Error == "" || out.Results[1].Accepted {
		t.Errorf("item 1: %+v", out.Results[1])
	}
	if out.Results[2].Accepted || out.Results[2].Reason != DenyUnlabeled.String() {
		t.Errorf("item 2: %+v", out.Results[2])
	}
	if !r.agg.Hosts(owned.ID) {
		t.Error("batch-accepted photo not hosted")
	}
}

// TestServerBatchUploadHostileFraming: a batch body's length prefixes
// and frame count are claims by the sender. Each lie is a 400 that
// allocates in proportion to the bytes really sent — never to the bytes
// claimed — and reaches no pipeline stage.
func TestServerBatchUploadHostileFraming(t *testing.T) {
	r := newRig(t, CustodialClaim, nil)
	h := NewServer(r.agg)

	frame := func(claimed uint32, payload []byte) []byte {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], claimed)
		return append(hdr[:], payload...)
	}
	var tooMany []byte
	for i := 0; i <= maxBatchFrames; i++ {
		tooMany = append(tooMany, frame(1, []byte{'x'})...)
	}
	cases := []struct {
		name    string
		body    []byte
		chunked bool // sent without a Content-Length
	}{
		{"oversize prefix on a tiny body", frame(maxUploadBytes, []byte("tiny")), false},
		{"oversize prefix, chunked", frame(maxUploadBytes, []byte("tiny")), true},
		{"prefix past any limit", frame(1<<32-1, nil), false},
		{"truncated frame", frame(100, make([]byte, 50)), false},
		{"truncated frame after a whole one", append(frame(3, []byte("abc")), frame(9, []byte("ab"))...), false},
		{"truncated header", []byte{0, 0}, false},
		{"frame-count overflow", tooMany, false},
		{"zero-length frames", bytes.Repeat(frame(0, nil), 8), false},
		{"zero-length frames, chunked", bytes.Repeat(frame(0, nil), 8), true},
	}
	for _, tc := range cases {
		post := func() int {
			var body io.Reader = bytes.NewReader(tc.body)
			if tc.chunked {
				body = struct{ io.Reader }{body} // hides the length from NewRequest
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/upload/batch", body)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec.Code
		}
		if code := post(); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		post()
		runtime.ReadMemStats(&after)
		// Request, recorder, JSON error and at most maxBatchFrames item
		// headers cost under 256 KiB; the body is held once (twice while
		// a chunked read grows its buffer).
		if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(256<<10+4*len(tc.body)); got > ceiling {
			t.Errorf("%s: a %d-byte body allocated %d bytes, ceiling %d", tc.name, len(tc.body), got, ceiling)
		}
	}
	if m := r.agg.MetricsSnapshot(); m.Uploads != 0 || r.agg.HostedCount() != 0 {
		t.Errorf("hostile framing reached the pipeline: %+v", m)
	}

	// The same reader shape with honest framing is served: the chunked
	// path is a way in, not a rejection.
	req := httptest.NewRequest(http.MethodPost, "/v1/upload/batch",
		struct{ io.Reader }{bytes.NewReader(frame(7, []byte("garbage")))})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out BatchUploadResponse
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("chunked batch: status %d, decode %v", rec.Code, err)
	}
	if len(out.Results) != 1 || out.Results[0].Error == "" {
		t.Errorf("chunked batch results: %+v", out.Results)
	}
}

// TestServerBatchUploadHostileDimensions: framing can be honest while
// the container inside lies. 64 frames of 21 bytes, each an IRSP header
// claiming a 16384×16384×3 image, are decoded on the pipeline's workers;
// each must fail its own slot having allocated by the bytes it holds,
// not the 768 MiB it claims.
func TestServerBatchUploadHostileDimensions(t *testing.T) {
	r := newRig(t, CustodialClaim, nil)
	h := NewServer(r.agg)

	container := []byte("IRSP1")
	for _, v := range []uint32{1 << 14, 1 << 14, 3, 0} { // w, h, channels, metadata pairs
		container = binary.BigEndian.AppendUint32(container, v)
	}
	const frames = 64
	var body []byte
	for i := 0; i < frames; i++ {
		body = binary.BigEndian.AppendUint32(body, uint32(len(container)))
		body = append(body, container...)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/upload/batch", bytes.NewReader(body)))
	runtime.ReadMemStats(&after)

	var out BatchUploadResponse
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("status %d, decode %v", rec.Code, err)
	}
	if len(out.Results) != frames {
		t.Fatalf("%d results for %d frames", len(out.Results), frames)
	}
	for i, res := range out.Results {
		if res.Error == "" || res.Accepted {
			t.Errorf("frame %d: %+v, want a per-item error", i, res)
		}
	}
	if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+4*len(body)); got > ceiling {
		t.Errorf("a %d-byte batch allocated %d bytes, ceiling %d", len(body), got, ceiling)
	}
	if m := r.agg.MetricsSnapshot(); m.Uploads != 0 || r.agg.HostedCount() != 0 {
		t.Errorf("hostile containers counted as uploads: %+v", m)
	}
}

// batchBody frames IRSP containers as POST /v1/upload/batch takes them.
func batchBody(t *testing.T, ims ...*photo.Image) []byte {
	t.Helper()
	var body []byte
	for _, im := range ims {
		var frame bytes.Buffer
		if err := photo.EncodeIRSP(&frame, im); err != nil {
			t.Fatal(err)
		}
		body = binary.BigEndian.AppendUint32(body, uint32(frame.Len()))
		body = append(body, frame.Bytes()...)
	}
	return body
}

// postBatch serves one batch request in-process.
func postBatch(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/upload/batch", bytes.NewReader(body)))
	return rec
}

// TestServerBatchBodySizedByBytesReceived: a declared Content-Length is
// the sender's claim like any length inside the body. A request that
// declares 64 MiB and sends 10 bytes is a 400 that costs what was sent,
// not what was declared.
func TestServerBatchBodySizedByBytesReceived(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	h := NewServer(r.agg)
	post := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/upload/batch", bytes.NewReader(make([]byte, 10)))
		req.ContentLength = maxUploadBytes
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	post()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code := post()
	runtime.ReadMemStats(&after)
	if code != http.StatusBadRequest {
		t.Errorf("status %d, want 400", code)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a 10-byte body declaring %d bytes allocated %d bytes, want under 1 MiB", maxUploadBytes, got)
	}
}

// TestUploadBatchAllocationBudget: once warm, a 16-image album of
// hosted photos POSTed to the server allocates the pixels it hosts plus
// at most 64 KiB — the body is read into a recycled buffer and every
// frame is parsed in place, so nothing else is the size of an image.
// Without the race detector, with GC off while it measures. Pools are
// per P, so the album is posted twice to warm them and its cheapest of
// three measured posts is the one held to the budget.
func TestUploadBatchAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	r := newRig(t, RejectUnlabeled, nil)
	h := NewServer(r.agg)
	ims := make([]*photo.Image, 16)
	pixels := 0
	for i := range ims {
		im, _, err := r.cam.ClaimAndLabel(r.cam.Shoot(2100+int64(i), 192, 128))
		if err != nil {
			t.Fatal(err)
		}
		ims[i], pixels = im, pixels+len(im.Pix)
	}
	body := batchBody(t, ims...)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 2; i++ {
		if rec := postBatch(h, body); rec.Code != http.StatusOK {
			t.Fatalf("warm-up album: status %d", rec.Code)
		}
	}
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/upload/batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		var out BatchUploadResponse
		if err := json.NewDecoder(rec.Body).Decode(&out); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("status %d, decode %v", rec.Code, err)
		}
		for i, res := range out.Results {
			if !res.Accepted {
				t.Fatalf("item %d: %+v, want hosted", i, res)
			}
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a %d-byte album hosting %d pixel bytes allocated %d bytes", len(body), pixels, least)
	if ceiling := uint64(pixels + 64<<10); least > ceiling {
		t.Errorf("a %d-byte album hosting %d pixel bytes allocated %d bytes, ceiling %d", len(body), pixels, least, ceiling)
	}
}

// TestUploadBatchBodyReuse: batch bodies are recycled between requests
// and their frames parsed in place, so a hosted photo that still
// pointed into one would change when a later album overwrote it.
// Several goroutines POST different albums through one server, two
// each; afterwards every hosted photo hashes as its source does, and
// every decision is serial Upload's. Named under -race in check.sh.
func TestUploadBatchBodyReuse(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	h := NewServer(r.agg)
	const goroutines, perGoroutine = 4, 2
	type album struct {
		ims  []*photo.Image
		body []byte
		got  BatchUploadResponse
	}
	albums := make([]*album, goroutines*perGoroutine)
	for a := range albums {
		seed := int64(3000 + 10*a)
		var ims []*photo.Image
		for i := int64(0); i < 2; i++ {
			im, _, err := r.cam.ClaimAndLabel(r.cam.Shoot(seed+i, 192, 128))
			if err != nil {
				t.Fatal(err)
			}
			ims = append(ims, im)
		}
		revoked, owned, err := r.cam.ClaimAndLabel(r.cam.Shoot(seed+2, 192, 128))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.cam.Revoke(owned.ID); err != nil {
			t.Fatal(err)
		}
		ims = append(ims, revoked, photo.Synth(seed+3, 160, 96))
		albums[a] = &album{ims: ims, body: batchBody(t, ims...)}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, al := range albums[g*perGoroutine : (g+1)*perGoroutine] {
				rec := postBatch(h, al.body)
				if err := json.NewDecoder(rec.Body).Decode(&al.got); err != nil || rec.Code != http.StatusOK {
					t.Errorf("status %d, decode %v", rec.Code, err)
				}
			}
		}()
	}
	wg.Wait()

	serial := freshAgg(t, r, RejectUnlabeled)
	for a, al := range albums {
		if len(al.got.Results) != len(al.ims) {
			t.Fatalf("album %d: %d results for %d frames", a, len(al.got.Results), len(al.ims))
		}
		for i, src := range al.ims {
			want, err := serial.Upload(src)
			if err != nil {
				t.Fatal(err)
			}
			got := al.got.Results[i]
			if got.Accepted != want.Accepted || got.Reason != want.Reason.String() || (want.Accepted && got.ID != want.ID.String()) {
				t.Errorf("album %d item %d: batch %+v, serial %+v", a, i, got, want)
			}
			if !want.Accepted {
				continue
			}
			hosted, ok := r.agg.Hosted(want.ID)
			if !ok || hosted.ContentHash() != src.ContentHash() {
				t.Errorf("album %d item %d: the hosted photo does not hash as its source (hosted %v)", a, i, ok)
			}
		}
	}
}
