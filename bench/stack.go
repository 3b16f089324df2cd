package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/proxy"
	"irs/internal/topology"
	"irs/internal/wire"
)

// originID is the one origin ledger every workload runs against.
const originID ids.LedgerID = 1

// countingListener counts the bytes that cross every connection it
// accepts, in both directions — the measure behind wire_bytes_per_op.
type countingListener struct {
	net.Listener
	bytes atomic.Uint64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Uint64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(uint64(n))
	return n, err
}

// Write counts before it writes: the peer can act on the bytes, and a
// block can end, before this goroutine runs again after the system
// call, and the bytes must land in the block that caused them.
func (c *countingConn) Write(p []byte) (int, error) {
	c.n.Add(uint64(len(p)))
	return c.Conn.Write(p)
}

// server is one loopback HTTP server on port 0.
type server struct {
	ln   *countingListener
	http *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		ln:   &countingListener{Listener: ln},
		http: &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(s.ln) // returns ErrServerClosed on close
	}()
	return s, nil
}

func (s *server) url() string { return "http://" + s.ln.Addr().String() }

// close stops the server and waits for its accept loop to end.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		_ = s.http.Close()
	}
	<-s.done
}

// ledgerTuning is the part of the origin's storage configuration the
// workloads differ in.
type ledgerTuning struct {
	memtableRecords int
	compactAfter    int
}

// stack is the real serving stack in one process over loopback TCP:
//
//	client ─hop 1→ proxy.Server ─┐
//	client ─hop 1→ aggregator ───┼─hop 2 (IRSW1)→ wire.Server → origin ledger
//	regional FilterCache ────────┘                    (segment engine)
//	edge FilterCache ← regional (in process) → proxy.Validator.SetFilter
type stack struct {
	dir    string // ledger directory, under the run's temp dir
	origin *ledger.Ledger

	originSrv *server
	rpcs      [numRPCs]atomic.Uint64 // requests that reached the ledger, by kind

	transport *http.Transport // hop-2 connection pool
	svc       wire.Service    // the IRSW1 wire client, or its traced decorator
	traced    *tracedService

	regional, edge *topology.FilterCache
	fromOrigin     *tracedSyncer // regional's upstream: svc
	fromRegional   *tracedSyncer // edge's upstream: regional

	proxy *proxy.Server // nil in upload_ingest
	// front is the hop-1 server clients talk to: the proxy, or the
	// aggregator in upload_ingest.
	front *server

	tr *tracer
}

// newStack opens a fresh origin ledger under tmp and starts the wire
// server, the wire client and the two filter tiers. The proxy is
// started separately (startProxy) because upload_ingest has none.
func newStack(tmp string, tune ledgerTuning, tr *tracer) (*stack, error) {
	dir, err := os.MkdirTemp(tmp, "origin-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir, tr: tr}
	st.origin, err = ledger.New(ledger.Config{
		ID:     originID,
		Dir:    dir,
		Engine: ledger.EngineSegments,
		// Not WALSyncBatch: with it every revocation and custodial claim
		// waits for an fsync of the sandbox's virtual disk, whose latency
		// (0.2–90 ms, shifting by the minute) then dominates and two sets
		// of runs of the same code differ by 15–30 %. See README.md.
		WALSync:         ledger.WALSyncOS,
		MemtableRecords: tune.memtableRecords,
		CompactAfter:    tune.compactAfter,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	seam := newHandlerSeam(kWireHandler, wire.NewServer(st.origin, ""), tr)
	seam.rpcs = &st.rpcs
	st.originSrv, err = serve(seam)
	if err != nil {
		st.close()
		return nil, err
	}
	st.transport = wire.NewTransport()
	st.svc = wire.NewClientOpts(st.originSrv.url(), "", wire.ClientOptions{
		HTTPClient: &http.Client{Transport: st.transport},
		Codec:      wire.CodecBinary,
	})
	if tr != nil {
		st.traced = &tracedService{Service: st.svc, tr: tr}
		st.svc = st.traced
	}
	st.regional = topology.NewFilterCache(topology.TierRegional, 0, nil)
	st.edge = topology.NewFilterCache(topology.TierEdge, 0, nil)
	st.fromOrigin = &tracedSyncer{inner: st.svc, tr: tr, kind: numKinds}
	st.fromRegional = &tracedSyncer{inner: st.regional, tr: tr, kind: kSyncServe}
	return st, nil
}

// startProxy starts the proxy with filter, cache and admission on.
func (st *stack) startProxy(cacheEntries int) error {
	dir := wire.NewDirectory()
	dir.Register(originID, st.svc)
	st.proxy = proxy.NewServer(proxy.Config{
		CacheCapacity: cacheEntries,
		UseFilter:     true,
		// The ceiling the admission code supports; the closed-loop
		// clients stay under it, so a refusal (429) is a failed op.
		Admission: proxy.AdmissionConfig{Enabled: true, Rate: 1e6, Burst: 1e6},
	}, dir)
	var err error
	st.front, err = serve(newHandlerSeam(kProxyHandler, st.proxy, st.tr))
	return err
}

// syncTiers publishes a new filter epoch at the origin and carries it
// through regional and edge to the proxy, one span per step. It returns
// the origin's epoch. op names the op the spans belong to (noOp during
// set-up).
func (st *stack) syncTiers(op int64) (uint64, error) {
	start := st.tr.begin()
	epoch, err := st.origin.BuildSnapshot()
	st.tr.end(kBuildSnapshot, rpcOther, op, 0, start)
	if err != nil {
		return 0, fmt.Errorf("build snapshot: %w", err)
	}
	start = st.tr.begin()
	_, _, err = st.regional.Pull(st.fromOrigin)
	st.tr.end(kPullRegional, rpcOther, op, 0, start)
	if err != nil {
		return 0, fmt.Errorf("regional pull: %w", err)
	}
	start = st.tr.begin()
	_, _, err = st.edge.Pull(st.fromRegional)
	st.tr.end(kPullEdge, rpcOther, op, 0, start)
	if err != nil {
		return 0, fmt.Errorf("edge pull: %w", err)
	}
	if st.proxy != nil {
		held, f, ok := st.edge.Latest()
		if !ok {
			return 0, fmt.Errorf("edge tier holds no filter")
		}
		start = st.tr.begin()
		st.proxy.Validator().SetFilter(originID, held, f)
		st.tr.end(kSetFilter, rpcOther, op, 0, start)
	}
	return epoch, nil
}

// upstreamRPCs is the number of requests that reached the ledger.
func (st *stack) upstreamRPCs() uint64 {
	var n uint64
	for i := range st.rpcs {
		n += st.rpcs[i].Load()
	}
	return n
}

// diskBytes is the size of everything under the ledger directory.
func (st *stack) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(st.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// close stops every server, closes the ledger and removes its
// directory. Safe on a partly built stack.
func (st *stack) close() {
	if st.front != nil {
		st.front.close()
	}
	if st.transport != nil {
		st.transport.CloseIdleConnections()
	}
	if st.originSrv != nil {
		st.originSrv.close()
	}
	if st.origin != nil {
		_ = st.origin.Close() // the directory is about to be removed
	}
	os.RemoveAll(st.dir)
}
