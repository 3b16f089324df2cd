package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"irs/internal/ids"
)

// rig is one workload wired to a built stack.
type rig interface {
	stack() *stack
	// clients is the number of closed-loop clients; blockOps is how many
	// ops each of them performs per block.
	clients() int
	blockOps() int
	// do performs op i of client c's block sequence under op id op. It
	// returns the client-observed latency and whether every answer
	// matched the ground truth.
	do(c, i int, op int64) (lat time.Duration, ok bool)
	// betweenBlocks runs the checks that are kept off the clock
	// (signature verification of sampled proofs) and returns how many
	// failed.
	betweenBlocks() (failed int)
	// keyInOp reports whether a content key belongs to an op of the
	// block just run; the span linker breaks ties with it.
	keyInOp(op int64, key uint64) bool
	// someIDs is a page worth of ids the ledger stores, for the replays.
	someIDs() []ids.PhotoID
	close()
}

// counters is a snapshot of everything counted per block.
type counters struct {
	allocBytes, allocObjs uint64
	hop1, hop2            uint64
	rpcs                  [numRPCs]uint64
	cpu                   time.Duration
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func snapshot(st *stack) counters {
	var c counters
	s := make([]metrics.Sample, len(allocSamples))
	copy(s, allocSamples)
	metrics.Read(s)
	c.allocBytes, c.allocObjs = s[0].Value.Uint64(), s[1].Value.Uint64()
	if st.front != nil {
		c.hop1 = st.front.ln.bytes.Load()
	}
	c.hop2 = st.originSrv.ln.bytes.Load()
	for i := range st.rpcs {
		c.rpcs[i] = st.rpcs[i].Load()
	}
	c.cpu = cpuTime()
	return c
}

func (c *counters) add(after, before counters) {
	c.allocBytes += after.allocBytes - before.allocBytes
	c.allocObjs += after.allocObjs - before.allocObjs
	c.hop1 += after.hop1 - before.hop1
	c.hop2 += after.hop2 - before.hop2
	for i := range c.rpcs {
		c.rpcs[i] += after.rpcs[i] - before.rpcs[i]
	}
	c.cpu += after.cpu - before.cpu
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMiB reads VmRSS, the process's resident set.
func rssMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// calibBuf is the fixed input of the host calibration probe.
var calibBuf = make([]byte, 64<<10)

// calibrate times a fixed amount of pure CPU work (SHA-256 over 8 MiB).
// The program under test does not change it, so its drift between
// blocks and between runs is the machine's, not the program's.
func calibrate() time.Duration {
	t0 := time.Now()
	var sink byte
	for i := 0; i < 128; i++ {
		h := sha256.Sum256(calibBuf)
		sink ^= h[0]
	}
	calibBuf[0] = sink // keep the work observable
	return time.Since(t0)
}

// block is what one timed block measured.
type block struct {
	traced bool
	wall   time.Duration
	delta  counters      // this block's counts
	calib  time.Duration // SHA-256 probe before the block
	probe  probeSample   // host probe before the block
	lat    [][]uint32    // per client, nanoseconds
	// WAL growth over the block, when no flush rotated the log in it.
	walBytes, walWrites uint64
}

// runResult is everything a run measured.
type runResult struct {
	setup      []time.Duration // one per set-up repetition
	setupProbe []probeSample   // host probe before the first repetition and after each
	blocks     []block
	clients    int
	opsPerBlk  int // all clients together
	attempted  int
	failed     int
	peakRSS    float64
	diskBytes  int64
	claims     uint64
	gcCycles   int64
	gcPause    time.Duration
	proxyStats [3]uint64 // filter answers, cache hits, ledger queries over the timed blocks
	proxyTotal uint64
	trace      *traceAgg
	replays    map[string]float64
	storage    storageDelta
	bloom      bloomCounts
	lagRounds  int
	calibLast  time.Duration // the probes after the last block
	probeLast  probeSample
	uploadMix  map[string]float64
}

// run sets the workload up, measures it for about `seconds` seconds and
// tears everything down.
func run(w workloadSpec, sc scale, seed int64, seconds int, trace bool, tmp string) (*runResult, error) {
	res := &runResult{}
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	probe, err := newHostProbe()
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	defer probe.close()
	res.setupProbe = append(res.setupProbe, probe.sample())
	var r rig
	for rep := 0; rep < sc.setupReps; rep++ {
		if r != nil {
			r.close()
		}
		runtime.GC() // each repetition starts from the same heap
		t0 := time.Now()
		r, err = w.build(sc, seed, tmp, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0))
		res.setupProbe = append(res.setupProbe, probe.sample())
	}
	defer r.close()
	st := r.stack()

	nc, per := r.clients(), r.blockOps()
	res.clients, res.opsPerBlk = nc, nc*per
	runBlock := func(b *block) (failed int) {
		b.lat = make([][]uint32, nc)
		var wg sync.WaitGroup
		fails := make([]int, nc)
		before := snapshot(st)
		t0 := time.Now()
		for c := 0; c < nc; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				lat := make([]uint32, per)
				for i := 0; i < per; i++ {
					d, ok := r.do(c, i, int64(c*per+i))
					lat[i] = uint32(min(d, time.Duration(1<<32-1)))
					if !ok {
						fails[c]++
					}
				}
				b.lat[c] = lat
			}(c)
		}
		wg.Wait()
		b.wall = time.Since(t0)
		b.delta.add(snapshot(st), before)
		for _, f := range fails {
			failed += f
		}
		return failed
	}

	// Untimed warm-up: connections, codec negotiation, caches, and in
	// revoke_sync the 64 rounds that make the revoked population
	// stationary.
	var warm block
	res.failed += runBlock(&warm)
	res.failed += r.betweenBlocks()
	res.attempted += res.opsPerBlk
	if tr != nil {
		tr.take()
	}
	// Set-up's garbage is returned to the OS, so that peak_rss_mb is the
	// memory serving needs, not what populating the ledger left behind.
	debug.FreeOSMemory()
	res.peakRSS = rssMiB()

	var gc0 debug.GCStats
	debug.ReadGCStats(&gc0)
	storage0 := st.origin.StorageStats()
	var proxy0 [4]uint64
	if st.proxy != nil {
		s := st.proxy.Validator().Stats()
		proxy0 = [4]uint64{s.FilterMisses, s.CacheHits, s.LedgerQueries, s.Total}
	}
	st.fromOrigin.reset()
	st.fromRegional.reset()
	if tr != nil {
		res.trace = newTraceAgg()
	}

	// One block per second asked for. Blocks are sized to take a little
	// under a second, and their number is fixed so that the counts of two
	// runs compare exactly; the time limit only guards against a host so
	// slow that the run would not end.
	limit := time.Duration(seconds) * time.Second * 5 / 4
	start := time.Now()
	for n := 0; n < sc.blocks(seconds) && time.Since(start) < limit; n++ {
		b := block{traced: trace && n%2 == 1}
		b.calib, b.probe = calibrate(), probe.sample()
		wal0 := st.origin.StorageStats()
		if tr != nil {
			tr.on.Store(b.traced)
		}
		res.failed += runBlock(&b)
		if tr != nil {
			tr.on.Store(false)
		}
		if wal1 := st.origin.StorageStats(); wal1.Flushes == wal0.Flushes && wal1.WALBytes >= wal0.WALBytes {
			b.walBytes = uint64(wal1.WALBytes - wal0.WALBytes)
			b.walWrites = wal1.WALRecords - wal0.WALRecords
		}
		res.attempted += res.opsPerBlk
		res.failed += r.betweenBlocks()
		if b.traced {
			res.trace.addBlock(tr.take(), r.keyInOp)
		}
		res.blocks = append(res.blocks, b)
		res.peakRSS = max(res.peakRSS, rssMiB())
	}
	res.calibLast, res.probeLast = calibrate(), probe.sample()

	var gc1 debug.GCStats
	debug.ReadGCStats(&gc1)
	res.gcCycles = gc1.NumGC - gc0.NumGC
	res.gcPause = gc1.PauseTotal - gc0.PauseTotal
	if st.proxy != nil {
		s := st.proxy.Validator().Stats()
		res.proxyStats = [3]uint64{s.FilterMisses - proxy0[0], s.CacheHits - proxy0[1], s.LedgerQueries - proxy0[2]}
		res.proxyTotal = s.Total - proxy0[3]
	}
	res.bloom = bloomCounts{
		deltas:    st.fromOrigin.deltas.Load() + st.fromRegional.deltas.Load(),
		snapshots: st.fromOrigin.snapshots.Load() + st.fromRegional.snapshots.Load(),
		bytes:     st.fromOrigin.bytes.Load(),
	}
	if lr, ok := r.(interface{ maxLag() int }); ok {
		res.lagRounds = lr.maxLag()
	}
	if um, ok := r.(interface{ mix() map[string]float64 }); ok {
		res.uploadMix = um.mix()
	}

	flushStart := time.Now()
	if err := st.origin.Flush(); err != nil {
		return nil, fmt.Errorf("final flush: %w", err)
	}
	flushTook := time.Since(flushStart)
	res.storage = storageSince(storage0, st.origin.StorageStats(), flushTook)
	if res.diskBytes, err = st.diskBytes(); err != nil {
		return nil, err
	}
	claims, _ := st.origin.Count()
	res.claims = uint64(claims)
	if trace {
		res.replays = replay(r)
	}
	// A failed proof check counts as one more failed op; an op cannot
	// fail more than once in the result object.
	res.failed = min(res.failed, res.attempted)
	return res, nil
}

// quantile returns the q-quantile of v by nearest rank (v is sorted in
// place).
func quantile[T int64 | uint32 | time.Duration | float64](v []T, q float64) T {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	i := int(q * float64(len(v)))
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

// pooled gathers the op latencies of the given blocks.
func (r *runResult) pooled(blocks []int) []uint32 {
	var all []uint32
	for _, i := range blocks {
		for _, l := range r.blocks[i].lat {
			all = append(all, l...)
		}
	}
	return all
}

// blocksWhere lists the timed blocks with the given traced flag.
func (r *runResult) blocksWhere(traced bool) []int {
	var out []int
	for i := range r.blocks {
		if r.blocks[i].traced == traced {
			out = append(out, i)
		}
	}
	return out
}

// quietHalf returns the half of the given blocks that took the least
// wall time. Interference (a neighbour, a writeback burst, a GC of the
// load generator's own garbage) arrives in windows of seconds and only
// ever adds time, so latency percentiles pool the ops of these blocks.
func (r *runResult) quietHalf(blocks []int) []int {
	q := append([]int(nil), blocks...)
	sort.Slice(q, func(a, b int) bool { return r.blocks[q[a]].wall < r.blocks[q[b]].wall })
	return q[:(len(q)+1)/2]
}

// blockSpeed is the host speed over the timed blocks: every block's
// probe and the one after the last.
func (r *runResult) blockSpeed() float64 { return hostSpeed(r.blockProbes()) }

func (r *runResult) blockProbes() []probeSample {
	samples := []probeSample{r.probeLast}
	for i := range r.blocks {
		samples = append(samples, r.blocks[i].probe)
	}
	return samples
}

// endToEnd computes the end-to-end metrics from the untraced blocks.
// Timing metrics come back twice: as measured (raw), and in
// reference-host time (see hostprobe.go), which is what is reported.
func (r *runResult) endToEnd() (reported, raw map[string]float64) {
	blocks := r.blocksWhere(false)
	var walls, cpus []time.Duration
	var total counters
	for _, i := range blocks {
		b := &r.blocks[i]
		walls = append(walls, b.wall)
		cpus = append(cpus, b.delta.cpu)
		total.add(b.delta, counters{})
	}
	ops := float64(len(blocks) * r.opsPerBlk)
	lat := r.pooled(r.quietHalf(blocks))
	perBlock := float64(r.opsPerBlk)
	var rpcs uint64
	for _, c := range total.rpcs {
		rpcs += c
	}
	raw = map[string]float64{
		// Interference only ever adds time, so capacity and CPU cost are
		// read off the lower-quartile block, and set-up time, which has
		// only a handful of samples and whose noise is the host's cost of
		// faulting fresh memory in, off the fastest repetition.
		"setup_s":       slices.Min(r.setup).Seconds(),
		"ops_per_s":     perBlock / quantile(walls, 0.25).Seconds(),
		"op_p50_ms":     float64(quantile(lat, 0.50)) / 1e6,
		"op_p95_ms":     float64(quantile(lat, 0.95)) / 1e6,
		"cpu_ms_per_op": float64(quantile(cpus, 0.25)) / 1e6 / perBlock,
	}
	reported = map[string]float64{
		"alloc_kb_per_op":      float64(total.allocBytes) / ops / 1024,
		"allocs_per_op":        float64(total.allocObjs) / ops,
		"peak_rss_mb":          r.peakRSS,
		"wire_bytes_per_op":    float64(total.hop1+total.hop2) / ops,
		"upstream_rpcs_per_op": float64(rpcs) / ops,
		"disk_bytes_per_claim": float64(r.diskBytes) / float64(r.claims),
	}
	speed := r.blockSpeed()
	reported["setup_s"] = raw["setup_s"] * hostSpeed(r.setupProbe)
	reported["ops_per_s"] = raw["ops_per_s"] / speed
	for _, name := range []string{"op_p50_ms", "op_p95_ms", "cpu_ms_per_op"} {
		reported[name] = raw[name] * speed
	}
	return reported, raw
}
