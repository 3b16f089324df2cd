package aggregator

import (
	"bytes"
	"context"
	"testing"
	"time"

	"irs/internal/camera"
	"irs/internal/ledger"
	"irs/internal/parallel"
	"irs/internal/photo"
	"irs/internal/wire"
)

// benchFixture builds a rig and an encoded labeled-active corpus
// outside the timed region.
func benchFixture(b *testing.B, n int) (*rig, []UploadItem) {
	b.Helper()
	ol, err := ledger.New(ledger.Config{ID: 1})
	if err != nil {
		b.Fatal(err)
	}
	cl, err := ledger.New(ledger.Config{ID: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ol.Close(); cl.Close() })
	dir := wire.NewDirectory()
	dir.Register(1, &wire.Loopback{L: ol})
	dir.Register(2, &wire.Loopback{L: cl})
	cam := camera.New(&wire.Loopback{L: ol}, "local://1", nil)
	r := &rig{ownerLedger: ol, custLedger: cl, cam: cam, dir: dir}
	items := make([]UploadItem, n)
	for i := range items {
		labeled, _, err := cam.ClaimAndLabel(cam.Shoot(int64(3000+i), 192, 128))
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := photo.EncodeIRSP(&buf, labeled); err != nil {
			b.Fatal(err)
		}
		items[i] = UploadItem{Raw: buf.Bytes()}
	}
	return r, items
}

func benchAgg(b *testing.B, r *rig) *Aggregator {
	b.Helper()
	agg, err := New(Config{
		Name:               "bench",
		Unlabeled:          RejectUnlabeled,
		CustodialLedger:    &wire.Loopback{L: r.custLedger},
		CustodialLedgerURL: "local://2",
		RecheckInterval:    time.Hour,
	}, r.dir)
	if err != nil {
		b.Fatal(err)
	}
	return agg
}

// BenchmarkUploadPipeline measures end-to-end ingest (decode, label
// extraction, signature, status, commit) through UploadAll. Each
// iteration gets a fresh aggregator so the hash DB and hosting state
// don't accumulate across iterations.
func BenchmarkUploadPipeline(b *testing.B) {
	const batch = 16
	r, items := benchFixture(b, batch)
	for _, workers := range []int{1, 4, 8} {
		b.Run(map[int]string{1: "workers1", 4: "workers4", 8: "workers8"}[workers], func(b *testing.B) {
			defer parallel.SetWorkers(parallel.SetWorkers(workers))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				agg := benchAgg(b, r)
				results := agg.UploadAll(context.Background(), items)
				for _, res := range results {
					if res.Err != nil || !res.Result.Accepted {
						b.Fatalf("item %d: %+v %v", res.Index, res.Result, res.Err)
					}
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "images/sec")
		})
	}
}

// BenchmarkUploadSerial is the reference arm for BenchmarkUploadPipeline.
func BenchmarkUploadSerial(b *testing.B) {
	const batch = 16
	r, items := benchFixture(b, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := benchAgg(b, r)
		for _, it := range items {
			im, err := photo.DecodeIRSP(bytes.NewReader(it.Raw))
			if err != nil {
				b.Fatal(err)
			}
			if res, err := agg.Upload(im); err != nil || !res.Accepted {
				b.Fatalf("%+v %v", res, err)
			}
		}
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "images/sec")
}
