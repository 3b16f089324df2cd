package wire

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"irs/internal/ids"
)

// TestDecodeResponseDrainsForReuse pins the keep-alive contract of
// decodeResponse: a response whose body carries data past the JSON
// value (here: padding after the document) must still leave the
// connection reusable. Before the drain fix, closing the body with
// unread bytes made the transport discard the connection, so the second
// request below dialed a fresh one.
func TestDecodeResponseDrainsForReuse(t *testing.T) {
	const padding = 8 << 10 // larger than any decoder read-ahead
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		body := `{"seq":7,"state":"active"}` + strings.Repeat(" ", padding)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write([]byte(body))
	}))
	defer srv.Close()

	// Dedicated transport so the pool isn't shared with other tests.
	c := NewClientOpts(srv.URL, "", ClientOptions{HTTPClient: &http.Client{Transport: &http.Transport{}}})

	var resp SeqQueryResponse
	if err := c.getJSON("seq", "/v1/seq?id=x", &resp); err != nil {
		t.Fatalf("first request: %v", err)
	}

	var got httptrace.GotConnInfo
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(i httptrace.GotConnInfo) { got = i },
	})
	c2 := c.WithContext(ctx).(*Client)
	if err := c2.getJSON("seq", "/v1/seq?id=x", &resp); err != nil {
		t.Fatalf("second request: %v", err)
	}
	if !got.Reused {
		t.Error("second request dialed a new connection; body with trailing data was not drained")
	}
}

// TestDirectoryRegisterRaces exercises Register racing every read path;
// run under -race this fails on the pre-mutex bare-map Directory (the
// scenario is real: the proxy re-registers a recovering ledger while
// RefreshFilters fans out over the directory).
func TestDirectoryRegisterRaces(t *testing.T) {
	d := NewDirectory()
	svc := &Loopback{}
	id, err := ids.New(3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(4)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 2000; i++ {
			d.Register(ids.LedgerID(i%8), svc)
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 2000; i++ {
			_, _ = d.ForLedger(ids.LedgerID(i % 8))
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 2000; i++ {
			_, _ = d.For(id)
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 2000; i++ {
			_ = d.All()
		}
	}()
	close(start)
	wg.Wait()
	if len(d.All()) != 8 {
		t.Errorf("directory holds %d ledgers, want 8", len(d.All()))
	}
}

// TestKeepAliveReuseAtHighConcurrency pins the transport-pool
// satellite: 8 workers hammering one host must keep their connections
// warm between rounds. http.DefaultTransport's MaxIdleConnsPerHost of
// 2 discards most of the pool at every round boundary, paying a fresh
// dial per worker per round; NewTransport sizes the idle pool to the
// batch fan-out so after warm-up no new connections are dialed.
//
// Two things make "no new connection after warm-up" exact rather than
// likely. The warm-up round is held at a barrier in the handler until
// all its requests are in flight, so it dials one connection per
// worker — without it a fast worker's connection gets reused inside the
// round, warm-up ends with fewer, and a later, more concurrent round
// dials the difference. And a round ends only when the client has
// offered every connection back to its idle pool (PutIdleConn, counted
// whether the pool took it or not): the server seeing a connection idle
// says nothing about the client's pool.
func TestKeepAliveReuseAtHighConcurrency(t *testing.T) {
	const workers = 8
	const rounds = 10

	var conns atomic.Int64
	var warmup sync.WaitGroup // the warm-up round's barrier
	warmup.Add(workers)
	var warmed atomic.Bool
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !warmed.Load() {
			warmup.Done()
			warmup.Wait()
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"seq":1,"state":"active"}`))
	}))
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	var offered atomic.Int64
	var requests int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		PutIdleConn: func(error) { offered.Add(1) },
	})
	c := NewClient(srv.URL, "").WithContext(ctx).(*Client) // default transport: NewTransport()
	runRound := func() {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				var resp SeqQueryResponse
				if err := c.getJSON("seq", "/v1/seq?id=x", &resp); err != nil {
					t.Errorf("request: %v", err)
				}
			}()
		}
		wg.Wait()
		requests += workers
		for guard := time.Now().Add(10 * time.Second); offered.Load() < requests; {
			if time.Now().After(guard) {
				t.Fatalf("%d of %d connections came back to the client's pool", offered.Load(), requests)
			}
			runtime.Gosched()
		}
	}

	// Warm-up may dial up to one connection per concurrent worker.
	runRound()
	warmed.Store(true)
	warm := conns.Load()
	if warm > workers {
		t.Fatalf("warm-up dialed %d connections for %d workers", warm, workers)
	}
	for i := 0; i < rounds; i++ {
		runRound()
	}
	if got := conns.Load(); got > warm {
		t.Errorf("rounds after warm-up dialed %d extra connections; idle pool is not sized to the fan-out",
			got-warm)
	}
}
