package main

import (
	"crypto/ed25519"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/tsa"
)

// The -storage arm benchmarks the ledger's persistence engine — the
// group-commit binary WAL + mmapped sorted segments — at scale. Before
// any timing is trusted, an equivalence gate feeds the same record
// stream to a segment ledger and to an in-memory ledger (the
// independent oracle: no WAL, no segments, every record resident) at a
// smaller size and requires identical StateHash digests, live and
// across a reopen — a wrong-but-fast engine must fail here, not win the
// charts.
//
// The harness measures:
//
//	ingest      sustained write throughput (records/sec) for the full
//	            claim population, plus fsync-batch counts showing the
//	            group-commit coalescing ratio
//	reads       point-lookup latency (p50/p95/p99) against a uniform
//	            sample of the population — at 10M+ claims most of these
//	            are served from mmapped segments, not from the in-RAM
//	            memtable
//	appends     single-record append latency, quiescent vs during an
//	            active compaction, which must not hold the write path
//	recovery    close + reopen time for the full population
//
// The committed BENCH_storage.json also carries the removed JSON-lines
// engine's numbers at 10M claims; it is the record of why that engine
// was deleted and is not regenerated.
type storageConfig struct {
	Out         string
	Claims      int
	Batch       int
	Reads       int
	Memtable    int
	EquivClaims int
	Seed        int64
	Dir         string
	KeepDirs    bool
}

type storageEngineReport struct {
	Engine        string  `json:"engine"`
	Claims        int     `json:"claims"`
	IngestSeconds float64 `json:"ingest_seconds"`
	IngestPerSec  float64 `json:"ingest_records_per_sec"`

	WALSyncs    uint64 `json:"wal_syncs"`
	WALRecords  uint64 `json:"wal_records"`
	Flushes     uint64 `json:"flushes"`
	Compactions uint64 `json:"compactions"`
	Segments    int    `json:"segments"`
	DirBytes    int64  `json:"dir_bytes"`

	ReadP50Us float64 `json:"read_p50_us"`
	ReadP95Us float64 `json:"read_p95_us"`
	ReadP99Us float64 `json:"read_p99_us"`

	AppendQuiescentP99Us float64 `json:"append_quiescent_p99_us"`
	AppendCompactP99Us   float64 `json:"append_during_compaction_p99_us"`
	AppendCompactMaxMs   float64 `json:"append_during_compaction_max_ms"`
	CompactSeconds       float64 `json:"compact_seconds"`

	RecoverySeconds float64 `json:"recovery_seconds"`
}

type storageReport struct {
	Seed           int64                 `json:"seed"`
	Claims         int                   `json:"claims"`
	EquivClaims    int                   `json:"equivalence_claims"`
	StateHashMatch bool                  `json:"state_hashes_match"`
	StateHash      string                `json:"state_hash"`
	Engines        []storageEngineReport `json:"engines"`
}

// benchRecordStream generates the deterministic claim stream every
// ledger in the harness ingests. IDs carry 8 random bytes (so segment
// sort order is uncorrelated with insertion order, like production
// CSPRNG IDs) plus a 4-byte counter guaranteeing uniqueness.
type benchRecordStream struct {
	rng  *rand.Rand
	next uint32
	t0   time.Time
}

func newBenchRecordStream(seed int64) *benchRecordStream {
	return &benchRecordStream{
		rng: rand.New(rand.NewSource(seed)),
		t0:  time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC),
	}
}

func (s *benchRecordStream) batch(n int) []ledger.Record {
	recs := make([]ledger.Record, n)
	for i := range recs {
		rec := &recs[i]
		rec.ID.Ledger = storageLedgerID
		binary.BigEndian.PutUint64(rec.ID.Rec[:8], s.rng.Uint64())
		binary.BigEndian.PutUint32(rec.ID.Rec[8:], s.next)
		s.next++
		rec.PubKey = make([]byte, ed25519.PublicKeySize)
		s.rng.Read(rec.PubKey)
		rec.HashSig = make([]byte, ed25519.SignatureSize)
		s.rng.Read(rec.HashSig)
		s.rng.Read(rec.ContentHash[:])
		tok := &tsa.Token{
			Serial: uint64(s.next),
			Time:   s.t0.Add(time.Duration(s.next) * time.Second),
			Sig:    make([]byte, ed25519.SignatureSize),
		}
		s.rng.Read(tok.Digest[:])
		s.rng.Read(tok.Sig)
		rec.Timestamp = tok
		switch r := s.rng.Intn(20); {
		case r == 0:
			rec.State = ledger.StatePermanentlyRevoked
		case r < 3:
			rec.State = ledger.StateRevoked
			rec.OpSeq = uint64(1 + s.rng.Intn(2))
		default:
			rec.State = ledger.StateActive
		}
		recs[i] = *rec
	}
	return recs
}

const storageLedgerID = 9

func storageLedgerConfig(dir string, memtable int) ledger.Config {
	return ledger.Config{
		ID:              storageLedgerID,
		Dir:             dir,
		WALSync:         ledger.WALSyncOS,
		MemtableRecords: memtable,
	}
}

// storageEquivIngest feeds the gate-size prefix of the seeded stream
// to l.
func storageEquivIngest(l *ledger.Ledger, cfg storageConfig) error {
	stream := newBenchRecordStream(cfg.Seed)
	n := cfg.EquivClaims
	for done := 0; done < n; {
		b := cfg.Batch
		if done+b > n {
			b = n - done
		}
		if err := l.RestoreRecords(stream.batch(b)); err != nil {
			return err
		}
		done += b
	}
	return nil
}

// storageEquivalence builds a segment ledger and an in-memory ledger
// from the identical record stream at the gate size and requires one
// StateHash: segment live, segment reopened, in-memory. Returns the
// common hash.
func storageEquivalence(cfg storageConfig, scratch string) (string, error) {
	dir := filepath.Join(scratch, "equiv-segments")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	lcfg := storageLedgerConfig(dir, cfg.Memtable)
	// A small memtable here forces flush/compaction machinery into the
	// gated state, not just the in-RAM map.
	if cfg.EquivClaims >= 4096 {
		lcfg.MemtableRecords = cfg.EquivClaims / 8
		lcfg.CompactAfter = 3
	}
	l, err := ledger.New(lcfg)
	if err != nil {
		return "", err
	}
	if err := storageEquivIngest(l, cfg); err != nil {
		l.Close()
		return "", fmt.Errorf("equivalence ingest: %w", err)
	}
	live, err := l.StateHash()
	if err != nil {
		l.Close()
		return "", err
	}
	if err := l.Close(); err != nil {
		return "", err
	}
	rl, err := ledger.New(lcfg)
	if err != nil {
		return "", fmt.Errorf("equivalence reopen: %w", err)
	}
	reopened, err := rl.StateHash()
	rl.Close()
	if err != nil {
		return "", err
	}
	if live != reopened {
		return "", fmt.Errorf("state hash changed across reopen: %x != %x", live, reopened)
	}

	mem, err := ledger.New(storageLedgerConfig("", 0))
	if err != nil {
		return "", err
	}
	defer mem.Close()
	if err := storageEquivIngest(mem, cfg); err != nil {
		return "", fmt.Errorf("in-memory equivalence ingest: %w", err)
	}
	oracle, err := mem.StateHash()
	if err != nil {
		return "", err
	}
	if live != oracle {
		return "", fmt.Errorf("segment state hash %x != in-memory %x", live, oracle)
	}
	return hex.EncodeToString(live[:]), nil
}

func storagePercentileUs(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Microsecond)
}

func storageDirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

func storageBench(cfg storageConfig, scratch string) (storageEngineReport, error) {
	const engine = "segments"
	rep := storageEngineReport{Engine: engine, Claims: cfg.Claims}
	dir := filepath.Join(scratch, "bench-"+engine)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rep, err
	}
	lcfg := storageLedgerConfig(dir, cfg.Memtable)
	l, err := ledger.New(lcfg)
	if err != nil {
		return rep, err
	}
	defer l.Close()

	// Ingest: stream the full population in batches, sampling IDs for
	// the read phase along the way.
	stream := newBenchRecordStream(cfg.Seed)
	sampleEvery := cfg.Claims / cfg.Reads
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	var sample []ids.PhotoID
	start := time.Now()
	for done := 0; done < cfg.Claims; {
		n := cfg.Batch
		if done+n > cfg.Claims {
			n = cfg.Claims - done
		}
		batch := stream.batch(n)
		if err := l.RestoreRecords(batch); err != nil {
			return rep, fmt.Errorf("%s ingest at %d: %w", engine, done, err)
		}
		for i := 0; i < n; i += sampleEvery {
			sample = append(sample, batch[i].ID)
		}
		done += n
	}
	if err := l.Sync(); err != nil {
		return rep, err
	}
	rep.IngestSeconds = time.Since(start).Seconds()
	rep.IngestPerSec = float64(cfg.Claims) / rep.IngestSeconds
	fmt.Printf("  [%s] ingest %d claims in %.1fs (%.0f rec/s)\n",
		engine, cfg.Claims, rep.IngestSeconds, rep.IngestPerSec)

	// Reads: uniform point lookups across the whole population. Shuffle
	// so segment locality cannot flatter the numbers.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	rng.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
	if len(sample) > cfg.Reads {
		sample = sample[:cfg.Reads]
	}
	lat := make([]time.Duration, 0, len(sample))
	for _, id := range sample {
		t0 := time.Now()
		if _, err := l.Record(id); err != nil {
			return rep, fmt.Errorf("%s read %s: %w", engine, id, err)
		}
		lat = append(lat, time.Since(t0))
	}
	rep.ReadP50Us = storagePercentileUs(lat, 0.50)
	rep.ReadP95Us = storagePercentileUs(lat, 0.95)
	rep.ReadP99Us = storagePercentileUs(lat, 0.99)
	fmt.Printf("  [%s] reads p50=%.1fµs p95=%.1fµs p99=%.1fµs (%d lookups)\n",
		engine, rep.ReadP50Us, rep.ReadP95Us, rep.ReadP99Us, len(lat))

	// Append latency, quiescent baseline then during an active
	// compaction. The engine merges off the write path, so the
	// during-compaction p99 must stay near baseline.
	appendOnce := func() (time.Duration, error) {
		batch := stream.batch(1)
		t0 := time.Now()
		err := l.RestoreRecords(batch)
		return time.Since(t0), err
	}
	const quiescentAppends = 2000
	qlat := make([]time.Duration, 0, quiescentAppends)
	for i := 0; i < quiescentAppends; i++ {
		d, err := appendOnce()
		if err != nil {
			return rep, err
		}
		qlat = append(qlat, d)
	}
	rep.AppendQuiescentP99Us = storagePercentileUs(qlat, 0.99)

	compactDone := make(chan error, 1)
	compactStart := time.Now()
	go func() { compactDone <- l.Compact() }()
	var clat []time.Duration
	var maxStall time.Duration
	compacting := true
	for compacting {
		select {
		case err := <-compactDone:
			if err != nil {
				return rep, fmt.Errorf("%s compact: %w", engine, err)
			}
			compacting = false
		default:
			d, err := appendOnce()
			if err != nil {
				return rep, err
			}
			clat = append(clat, d)
			if d > maxStall {
				maxStall = d
			}
			// Pace the probe so a minutes-long compaction at full scale
			// is raced by thousands of appends, not tens of millions.
			time.Sleep(time.Millisecond)
		}
	}
	rep.CompactSeconds = time.Since(compactStart).Seconds()
	rep.AppendCompactP99Us = storagePercentileUs(clat, 0.99)
	rep.AppendCompactMaxMs = float64(maxStall) / float64(time.Millisecond)
	fmt.Printf("  [%s] append p99 quiescent=%.1fµs during-compaction=%.1fµs (max stall %.1fms, compact %.1fs, %d appends raced it)\n",
		engine, rep.AppendQuiescentP99Us, rep.AppendCompactP99Us, rep.AppendCompactMaxMs,
		rep.CompactSeconds, len(clat))

	st := l.StorageStats()
	rep.WALSyncs = st.WALSyncs
	rep.WALRecords = st.WALRecords
	rep.Flushes = st.Flushes
	rep.Compactions = st.Compactions
	rep.Segments = st.Segments
	wantClaims, _ := l.Count()
	if err := l.Close(); err != nil {
		return rep, err
	}
	rep.DirBytes = storageDirBytes(dir)

	// Recovery: a cold reopen of the full population.
	t0 := time.Now()
	rl, err := ledger.New(lcfg)
	if err != nil {
		return rep, fmt.Errorf("%s recovery: %w", engine, err)
	}
	rep.RecoverySeconds = time.Since(t0).Seconds()
	if claims, _ := rl.Count(); claims != wantClaims {
		rl.Close()
		return rep, fmt.Errorf("%s recovery: %d claims, want %d", engine, claims, wantClaims)
	}
	if err := rl.Close(); err != nil {
		return rep, err
	}
	fmt.Printf("  [%s] recovery %.2fs, dir %.1f MiB\n",
		engine, rep.RecoverySeconds, float64(rep.DirBytes)/(1<<20))
	return rep, nil
}

func runStorage(cfg storageConfig) error {
	scratch := cfg.Dir
	if scratch == "" {
		d, err := os.MkdirTemp("", "irs-storage-bench-")
		if err != nil {
			return err
		}
		scratch = d
	}
	if !cfg.KeepDirs {
		defer os.RemoveAll(scratch)
	}

	report := storageReport{Seed: cfg.Seed, Claims: cfg.Claims, EquivClaims: cfg.EquivClaims}
	fmt.Printf("storage: equivalence gate at %d claims (segments vs in-memory)\n", cfg.EquivClaims)
	hash, err := storageEquivalence(cfg, scratch)
	if err != nil {
		return fmt.Errorf("equivalence gate: %w", err)
	}
	report.StateHashMatch = true
	report.StateHash = hash
	fmt.Printf("storage: ledgers agree, state hash %s…\n", hash[:16])

	fmt.Printf("storage: benchmarking at %d claims\n", cfg.Claims)
	rep, err := storageBench(cfg, scratch)
	if err != nil {
		return err
	}
	report.Engines = append(report.Engines, rep)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.Out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("storage: wrote %s\n", cfg.Out)
	return nil
}
