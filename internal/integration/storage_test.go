package integration

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"net/http/httptest"
	"sync"
	"testing"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/wire"
)

// TestPersistentLedgerSurvivesRestart hammers a segment-engine ledger
// over real HTTP — concurrent claims and revokes sized to force
// background flushes and compactions mid-traffic — then restarts it at
// a different shard count and requires byte-identical state (StateHash)
// plus correct per-claim status over the wire.
func TestPersistentLedgerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	open := func(shards int) *ledger.Ledger {
		l, err := ledger.New(ledger.Config{
			ID:              7,
			Dir:             dir,
			Shards:          shards,
			WALSync:         ledger.WALSyncBatch,
			MemtableRecords: 128, // several background flushes over the run
			CompactAfter:    3,   // and at least one background compaction
		})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := open(8)
	srv := httptest.NewServer(wire.NewServer(l, ""))

	const writers = 8
	const perWriter = 80
	type claimed struct {
		id      ids.PhotoID
		revoked bool
	}
	all := make([][]claimed, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := wire.NewClient(srv.URL, "")
			pub, priv, err := ed25519.GenerateKey(rand.Reader)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perWriter; i++ {
				var hash [32]byte
				binary.LittleEndian.PutUint64(hash[:], uint64(w))
				binary.LittleEndian.PutUint64(hash[8:], uint64(i))
				hash = sha256.Sum256(hash[:])
				receipt, err := client.Claim(&wire.ClaimRequest{
					ContentHash: hash[:],
					PubKey:      pub,
					HashSig:     ed25519.Sign(priv, ledger.ClaimMsg(hash)),
				})
				if err != nil {
					t.Errorf("writer %d claim %d: %v", w, i, err)
					return
				}
				c := claimed{id: receipt.ID}
				if i%3 == 0 {
					seq, err := client.Seq(receipt.ID)
					if err != nil {
						t.Errorf("writer %d seq: %v", w, err)
						return
					}
					sig := ed25519.Sign(priv, ledger.OpMsg(receipt.ID, ledger.OpRevoke, seq+1))
					if err := client.Apply(receipt.ID, ledger.OpRevoke, seq+1, sig); err != nil {
						t.Errorf("writer %d revoke: %v", w, err)
						return
					}
					c.revoked = true
				}
				all[w] = append(all[w], c)
			}
		}(w)
	}
	wg.Wait()
	srv.Close()
	if t.Failed() {
		t.Fatal("writer errors above")
	}

	st := l.StorageStats()
	if st.Flushes == 0 {
		t.Error("hammer never triggered a background flush; shrink MemtableRecords")
	}
	if st.Compactions == 0 {
		t.Error("hammer never triggered a background compaction; shrink CompactAfter")
	}
	want, err := l.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	wantClaims, wantRevoked := l.Count()
	if wantClaims != writers*perWriter {
		t.Fatalf("claims = %d, want %d", wantClaims, writers*perWriter)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart at a different shard count; state must be unchanged and
	// every claim's status must still be served, over HTTP, from the
	// mix of recovered segments and replayed WAL.
	rl := open(32)
	defer rl.Close()
	got, err := rl.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("state hash changed across restart:\n got %x\nwant %x", got, want)
	}
	if claims, revoked := rl.Count(); claims != wantClaims || revoked != wantRevoked {
		t.Fatalf("counts after restart = (%d, %d), want (%d, %d)", claims, revoked, wantClaims, wantRevoked)
	}
	srv2 := httptest.NewServer(wire.NewServer(rl, ""))
	defer srv2.Close()
	client := wire.NewClient(srv2.URL, "")
	for w := range all {
		for i, c := range all[w] {
			proof, err := client.Status(c.id)
			if err != nil {
				t.Fatalf("status writer %d item %d: %v", w, i, err)
			}
			wantState := ledger.StateActive
			if c.revoked {
				wantState = ledger.StateRevoked
			}
			if proof.State != wantState {
				t.Fatalf("writer %d item %d: state %v, want %v", w, i, proof.State, wantState)
			}
		}
	}
}
