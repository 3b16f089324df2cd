package integration

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"irs/internal/appeals"
	"irs/internal/camera"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/tsa"
	"irs/internal/watermark"
	"irs/internal/wire"
)

// TestPersistentLedgerSurvivesRestart hammers a segment-engine ledger
// over real HTTP — concurrent claims and revokes sized to force
// background flushes and compactions mid-traffic — then restarts it at
// a different shard count and requires byte-identical state (StateHash)
// plus correct per-claim status over the wire. The ledger keeps its
// identity: the restarted one publishes the same keys, every token and
// proof issued before the restart verifies under them, its timestamp
// serials continue above the old ones, and an appeal filed after the
// restart on a pre-restart claim's token is heard and upheld.
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
		token   *tsa.Token
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
				c := claimed{id: receipt.ID, token: receipt.Timestamp}
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
	// The original of a later appeal, claimed and labeled over HTTP.
	victim := camera.New(wire.NewClient(srv.URL, ""), srv.URL, nil)
	orig := victim.Shoot(7, 192, 128)
	labeled, owned, err := victim.ClaimAndLabel(orig)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if t.Failed() {
		t.Fatal("writer errors above")
	}
	var oldIDs []ids.PhotoID
	oldTokens := []*tsa.Token{owned.Receipt.Timestamp}
	for w := range all {
		for _, c := range all[w] {
			oldIDs = append(oldIDs, c.id)
			oldTokens = append(oldTokens, c.token)
		}
	}
	oldProofs, err := l.StatusBatch(oldIDs)
	if err != nil {
		t.Fatal(err)
	}
	signKey, tsaKey := l.SigningKey(), l.TimestampKey()

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
	if wantClaims != writers*perWriter+1 {
		t.Fatalf("claims = %d, want %d", wantClaims, writers*perWriter+1)
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

	// The same identity: keys, old tokens and proofs, and serials that
	// never repeat.
	if !rl.SigningKey().Equal(signKey) || !rl.TimestampKey().Equal(tsaKey) {
		t.Fatal("the restarted ledger publishes other keys")
	}
	var maxOld uint64
	for i, tok := range oldTokens {
		if err := tsa.Verify(rl.TimestampKey(), tok); err != nil {
			t.Fatalf("pre-restart token %d (serial %d): %v", i, tok.Serial, err)
		}
		maxOld = max(maxOld, tok.Serial)
	}
	for i, p := range oldProofs {
		if err := ledger.VerifyProof(rl.SigningKey(), p, time.Now(), 0); err != nil {
			t.Fatalf("pre-restart proof %d: %v", i, err)
		}
	}

	// After the restart an attacker claims a stolen copy on the same
	// ledger; the victim's appeal, with its pre-restart token, is heard.
	attacker := camera.New(client, srv2.URL, nil)
	stolen, err := watermark.Erase(labeled, watermark.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	stolen.Meta.StripAll()
	attackCopy, attackOwned, err := attacker.ClaimAndLabel(stolen)
	if err != nil {
		t.Fatal(err)
	}
	if s := attackOwned.Receipt.Timestamp.Serial; s <= maxOld {
		t.Fatalf("first serial after the restart is %d, not above the old maximum %d", s, maxOld)
	}
	v, err := appeals.NewAdjudicator(rl, nil).Decide(&appeals.Complaint{
		Original:       orig,
		OriginalToken:  owned.Receipt.Timestamp,
		OriginalLedger: 7,
		Copy:           attackCopy,
		ContestedID:    attackOwned.ID,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != appeals.Upheld {
		t.Fatalf("appeal with a pre-restart token: %v (%s)", v.Outcome, v.Detail)
	}
}
