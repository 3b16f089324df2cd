package aggregator

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"irs/internal/camera"
	"irs/internal/ids"
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

// mixedAlbum builds a 40-item album in upload_ingest's proportions: 60 %
// labeled active, 15 % derivatives of an earlier active item with the
// label kept, 15 % unlabeled, 5 % revoked, and one item each with a
// mismatched metadata label and a malformed container. Under
// CustodialClaim it hosts the active, derivative and unlabeled items,
// the last after a full watermark search and a claim.
func mixedAlbum(b *testing.B, r *rig) (items []UploadItem, accepts int) {
	b.Helper()
	kinds := []byte(strings.Repeat("A", 24) + strings.Repeat("D", 6) + strings.Repeat("U", 6) + "RRMX")
	rng := rand.New(rand.NewSource(40))
	// Item 0 stays active, so every derivative has an earlier source.
	rest := kinds[1:]
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	var actives []*photo.Image
	for i, k := range kinds {
		var im *photo.Image
		var err error
		seed := int64(5000 + i)
		switch k {
		case 'A', 'R', 'M':
			var owned *camera.Owned
			im, owned, err = r.cam.ClaimAndLabel(r.cam.Shoot(seed, 192, 128))
			if err != nil {
				b.Fatal(err)
			}
			switch k {
			case 'A':
				actives = append(actives, im)
			case 'R':
				err = r.cam.Revoke(owned.ID)
			case 'M':
				var other ids.PhotoID
				if other, err = ids.New(1); err == nil {
					im.Meta.Set(photo.KeyIRSID, other.String())
				}
			}
		case 'D':
			im = photo.CompressJPEGLike(actives[rng.Intn(len(actives))], 90)
		case 'U':
			im = photo.Synth(seed, 192, 128)
		case 'X':
			items = append(items, UploadItem{Raw: []byte("corrupt frame")})
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := photo.EncodeIRSP(&buf, im); err != nil {
			b.Fatal(err)
		}
		items = append(items, UploadItem{Raw: buf.Bytes()})
		if k == 'A' || k == 'D' || k == 'U' {
			accepts++
		}
	}
	return items, accepts
}

func benchAgg(b *testing.B, r *rig, policy UnlabeledPolicy) *Aggregator {
	b.Helper()
	agg, err := New(Config{
		Name:               "bench",
		Unlabeled:          policy,
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
// don't accumulate across iterations. The workersN arms upload 16
// labeled-active items, which need neither the full watermark search
// nor a claim; the mixed arm uploads mixedAlbum under CustodialClaim
// at the default pool width, which follows -cpu.
func BenchmarkUploadPipeline(b *testing.B) {
	const batch = 16
	r, items := benchFixture(b, batch)
	for _, workers := range []int{1, 4, 8} {
		b.Run(map[int]string{1: "workers1", 4: "workers4", 8: "workers8"}[workers], func(b *testing.B) {
			defer parallel.SetWorkers(parallel.SetWorkers(workers))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				agg := benchAgg(b, r, RejectUnlabeled)
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
	mixed, accepts := mixedAlbum(b, r)
	b.Run("mixed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			agg := benchAgg(b, r, CustodialClaim)
			n := 0
			for _, res := range agg.UploadAll(context.Background(), mixed) {
				if res.Err == nil && res.Result.Accepted {
					n++
				}
			}
			if n != accepts {
				b.Fatalf("%d of %d items accepted, want %d", n, len(mixed), accepts)
			}
		}
		b.ReportMetric(float64(len(mixed))*float64(b.N)/b.Elapsed().Seconds(), "images/sec")
	})
}

// BenchmarkUploadSerial is the reference arm for BenchmarkUploadPipeline.
func BenchmarkUploadSerial(b *testing.B) {
	const batch = 16
	r, items := benchFixture(b, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := benchAgg(b, r, RejectUnlabeled)
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
