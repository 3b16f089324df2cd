package ledger

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/tsa"
)

// TestIdentitySurvivesReopen: a persistent ledger reopened from its
// directory publishes the same proof-signing and timestamp keys, every
// timestamp token and status proof it issued before verifies under them,
// and its serials continue above every serial its records hold — read
// from WAL replay when the newest claims are only logged, and from
// MANIFEST alone once everything is sealed, a restored record's foreign
// serial included.
func TestIdentitySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() *Ledger {
		t.Helper()
		l, err := New(Config{ID: 9, Dir: dir, MemtableRecords: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := open()
	info, err := os.Stat(filepath.Join(dir, keyFile))
	if err != nil {
		t.Fatalf("a fresh directory got no key file: %v", err)
	}
	if mode := info.Mode().Perm(); mode != 0o600 {
		t.Errorf("key file mode %o, want 600", mode)
	}
	signKey, tsaKey := l.SigningKey(), l.TimestampKey()
	o := newOwner(t)
	var tokens []*tsa.Token
	var claimed []ids.PhotoID
	for i := 0; i < 6; i++ {
		r := o.claim(t, l, hashOf(fmt.Sprint("identity-", i)), i%2 == 0)
		tokens, claimed = append(tokens, r.Timestamp), append(claimed, r.ID)
		if i == 3 {
			if err := l.Flush(); err != nil { // four sealed, two only in the WAL
				t.Fatal(err)
			}
		}
	}
	proofs, err := l.StatusBatch(claimed)
	if err != nil {
		t.Fatal(err)
	}

	// check reopens dir and requires the old identity and a serial above
	// high.
	check := func(what string, high uint64) *Ledger {
		t.Helper()
		rl := open()
		if !rl.SigningKey().Equal(signKey) || !rl.TimestampKey().Equal(tsaKey) {
			t.Fatalf("%s: keys changed across the reopen", what)
		}
		for i, tok := range tokens {
			if err := tsa.Verify(rl.TimestampKey(), tok); err != nil {
				t.Fatalf("%s: token %d (serial %d) no longer verifies: %v", what, i, tok.Serial, err)
			}
			rec, err := rl.Record(claimed[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := tsa.Verify(rl.TimestampKey(), rec.Timestamp); err != nil {
				t.Fatalf("%s: stored token %d no longer verifies: %v", what, i, err)
			}
		}
		for i, p := range proofs {
			if err := VerifyProof(rl.SigningKey(), p, time.Now(), 0); err != nil {
				t.Fatalf("%s: proof %d no longer verifies: %v", what, i, err)
			}
		}
		r := o.claim(t, rl, hashOf(what), false)
		if r.Timestamp.Serial <= high {
			t.Fatalf("%s: first serial after the reopen is %d, not above %d", what, r.Timestamp.Serial, high)
		}
		tokens, claimed = append(tokens, r.Timestamp), append(claimed, r.ID)
		return rl
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = check("after WAL replay", tokens[len(tokens)-1].Serial)

	// A restored record with a far larger serial, then everything
	// sealed: the WAL is empty, so only MANIFEST can carry the mark.
	foreign := makeRecords(t, 9, 1, 77)
	foreign[0].Timestamp.Serial = 10_000
	if err := l.RestoreRecords(foreign); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.MaxSerial != 10_000 {
		t.Fatalf("MANIFEST max_serial = %d, want 10000", man.MaxSerial)
	}
	if seqs, err := listWALFiles(dir); err != nil || len(seqs) != 1 {
		t.Fatalf("wal files %v (%v), want one", seqs, err)
	} else if info, err := os.Stat(filepath.Join(dir, walFileName(seqs[0]))); err != nil || info.Size() != 0 {
		t.Fatalf("live wal not empty after the flush (%v)", err)
	}
	l = check("from MANIFEST", 10_000)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Without its key file the directory is refused, not reopened under
	// new keys.
	lost := copyLedgerDir(t, dir)
	if err := os.Remove(filepath.Join(lost, keyFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{ID: 9, Dir: lost}); err == nil || !strings.Contains(err.Error(), keyFile) {
		t.Fatalf("a directory with records and no key file opened (err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(lost, keyFile)); !os.IsNotExist(err) {
		t.Fatal("the refused open wrote a key file")
	}
	// A damaged key file is refused too.
	bad := copyLedgerDir(t, dir)
	raw, err := os.ReadFile(filepath.Join(bad, keyFile))
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 1
	if err := os.WriteFile(filepath.Join(bad, keyFile), raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{ID: 9, Dir: bad}); err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("a damaged key file was accepted (err %v)", err)
	}
}
