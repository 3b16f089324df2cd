package proxy

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/wire"
)

// countingSync is a loopback ledger service that counts the filter
// pulls it serves. hold, when set, runs after a FilterSync answer has
// been computed and before it is returned — the place where a slow
// network would sit.
type countingSync struct {
	wire.Loopback
	syncs atomic.Int64
	hold  func(nth int64)
}

func (c *countingSync) FilterSync(held uint64, base []byte) ([]byte, uint64, error) {
	n := c.syncs.Add(1)
	payload, latest, err := c.Loopback.FilterSync(held, base)
	if c.hold != nil {
		c.hold(n)
	}
	return payload, latest, err
}

// newSyncLedger builds an in-memory ledger at filter epoch 1 behind a
// countingSync.
func newSyncLedger(t *testing.T, lid ids.LedgerID) *countingSync {
	t.Helper()
	l, err := ledger.New(ledger.Config{ID: lid})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	c := &countingSync{Loopback: wire.Loopback{L: l}}
	c.advance(t)
	return c
}

// advance revokes five more records and publishes the next epoch.
func (c *countingSync) advance(t *testing.T) {
	t.Helper()
	if err := c.L.RestoreRecords(revokedRecords(t, c.L.ID(), 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.L.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
}

func postRefresh(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Post(url+"/v1/refresh", "application/json", nil)
	if err != nil {
		t.Error(err)
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRefreshEndpointSingleFlight: 16 concurrent POST /v1/refresh while
// both ledgers sit on their first answer cost each ledger exactly one
// FilterSync, and every caller gets that refresh's result.
func TestRefreshEndpointSingleFlight(t *testing.T) {
	const callers = 16
	stubs := []*countingSync{newSyncLedger(t, 2), newSyncLedger(t, 3)}
	dir := wire.NewDirectory()
	for _, s := range stubs {
		dir.Register(s.L.ID(), s)
	}
	ps := NewServer(Config{UseFilter: true}, dir)
	var entered atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered.Add(1)
		ps.ServeHTTP(w, r)
	}))
	defer srv.Close()

	if code := postRefresh(t, srv.URL); code != http.StatusOK {
		t.Fatalf("first refresh: status %d", code)
	}
	entered.Store(0)
	release := make(chan struct{})
	for _, s := range stubs {
		s.syncs.Store(0) // the first refresh's cold sync
		s.advance(t)
		s.hold = func(int64) { <-release }
	}

	codes := make([]int, callers)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = postRefresh(t, srv.URL)
		}(i)
	}
	// Every caller is inside the handler and each ledger holds one
	// answer; then leave room for a second sync to show up. The wait
	// only decides how reliably a missing single-flight is caught: with
	// it in place no second sync can start until release.
	deadline := time.Now().Add(5 * time.Second)
	for entered.Load() < callers || stubs[0].syncs.Load() < 1 || stubs[1].syncs.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d callers entered, syncs %d/%d", entered.Load(), stubs[0].syncs.Load(), stubs[1].syncs.Load())
		}
		time.Sleep(time.Millisecond)
	}
	for grace := time.Now().Add(100 * time.Millisecond); time.Now().Before(grace); time.Sleep(time.Millisecond) {
		if stubs[0].syncs.Load() > 1 || stubs[1].syncs.Load() > 1 {
			break
		}
	}
	close(release)
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("caller %d: status %d", i, code)
		}
	}
	for _, s := range stubs {
		if n := s.syncs.Load(); n != 1 {
			t.Errorf("ledger %d served %d FilterSync for %d concurrent refreshes, want 1", s.L.ID(), n, callers)
		}
		if got := ps.Validator().Epoch(s.L.ID()); got != 2 {
			t.Errorf("ledger %d: held epoch %d, want 2", s.L.ID(), got)
		}
	}
}

// TestRefreshFiltersEpochNeverDecreases: a pull whose answer (epoch 2)
// is still in flight must not be overtaken by a later pull that
// installs epoch 3 and then be installed over it — through
// RefreshFilters, and through Pull from a chained upstream validator.
func TestRefreshFiltersEpochNeverDecreases(t *testing.T) {
	stub := newSyncLedger(t, 2)
	dir := wire.NewDirectory()
	dir.Register(2, stub)
	v := NewValidator(Config{UseFilter: true}, nil)
	if err := v.RefreshFilters(dir); err != nil {
		t.Fatal(err)
	}
	stub.syncs.Store(0) // the cold sync

	// Slow pull: computes the epoch-2 answer, then stalls.
	stub.advance(t)
	stalled, release := make(chan struct{}), make(chan struct{})
	stub.hold = func(nth int64) {
		if nth == 1 {
			close(stalled)
			<-release
		}
	}
	slow, fast := make(chan error, 1), make(chan error, 1)
	go func() { slow <- v.RefreshFilters(dir) }()
	<-stalled
	// The ledger moves on and a second caller asks. It either joins the
	// stalled refresh (and is still waiting when the timer fires) or,
	// without single-flight, installs epoch 3 right away.
	stub.advance(t)
	go func() { fast <- v.RefreshFilters(dir) }()
	seen := uint64(1)
	for wait := time.Now().Add(100 * time.Millisecond); time.Now().Before(wait) && seen < 3; time.Sleep(time.Millisecond) {
		seen = v.Epoch(2)
	}
	close(release)
	for _, ch := range []chan error{slow, fast} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Epoch(2); got < seen {
		t.Fatalf("held epoch went %d -> %d: the stalled pull installed over a newer one", seen, got)
	}

	// Hammer: refreshers against a ledger that keeps publishing, every
	// other answer delayed; no reader may ever see the epoch step back.
	stub.hold = func(nth int64) {
		if nth%2 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	var high atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := v.RefreshFilters(dir); err != nil {
					t.Error(err)
					return
				}
				// Read, then raise the shared high-water mark: a value
				// below a mark raised before this read is a step back.
				before := high.Load()
				got := v.Epoch(2)
				if got < before {
					t.Errorf("held epoch %d after %d had been seen", got, before)
					return
				}
				for cur := before; got > cur && !high.CompareAndSwap(cur, got); cur = high.Load() {
				}
			}
		}()
	}
	// Chained arm: a downstream validator pulls from v through an
	// upstream that stalls every other answer after computing it, from
	// several goroutines at once and with no single-flight around them.
	down := NewValidator(Config{UseFilter: true}, nil)
	var downCalls atomic.Int64
	slowUp := func(from uint64, base []byte) ([]byte, uint64, error) {
		payload, latest, err := v.FilterSync(2, from, base)
		if downCalls.Add(1)%2 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
		return payload, latest, err
	}
	var downHigh atomic.Uint64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := down.Pull(2, slowUp); err != nil {
					t.Error(err)
					return
				}
				before := downHigh.Load()
				got := down.Epoch(2)
				if got < before {
					t.Errorf("chained: held epoch %d after %d had been seen", got, before)
					return
				}
				for cur := before; got > cur && !downHigh.CompareAndSwap(cur, got); cur = downHigh.Load() {
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		stub.advance(t)
		time.Sleep(250 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	if downHigh.Load() < 2 {
		t.Errorf("chained validator reached epoch %d only", downHigh.Load())
	}
}

// TestRefreshEndpointAdmission: a refresh costs one token per
// registered ledger, and a client without them is turned away before
// any ledger hears of it.
func TestRefreshEndpointAdmission(t *testing.T) {
	stubs := []*countingSync{newSyncLedger(t, 2), newSyncLedger(t, 3)}
	dir := wire.NewDirectory()
	for _, s := range stubs {
		dir.Register(s.L.ID(), s)
	}
	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	ps := NewServer(Config{
		UseFilter: true,
		Clock:     func() time.Time { return now }, // frozen: no refill
		Admission: AdmissionConfig{Enabled: true, Rate: 1, Burst: 2, OverflowRate: 1, OverflowBurst: 1},
	}, dir)
	srv := httptest.NewServer(ps)
	defer srv.Close()
	upstream := func() int64 {
		var n int64
		for _, s := range stubs {
			n += s.syncs.Load()
		}
		return n
	}

	// Two ledgers, burst 2: exactly one refresh fits.
	if code := postRefresh(t, srv.URL); code != http.StatusOK {
		t.Fatalf("first refresh: status %d", code)
	}
	before := upstream()
	if before == 0 {
		t.Fatal("the admitted refresh reached no ledger")
	}
	for i := 0; i < 5; i++ {
		if code := postRefresh(t, srv.URL); code != http.StatusTooManyRequests {
			t.Fatalf("over-rate refresh %d: status %d, want 429", i, code)
		}
	}
	if after := upstream(); after != before {
		t.Errorf("denied refreshes caused %d upstream calls", after-before)
	}
}
