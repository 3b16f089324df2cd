package ledger

import (
	"bytes"
	"crypto/ed25519"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"irs/internal/tsa"
)

// dirListing returns dir's file names and contents.
func dirListing(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestFormatV1DirectoryRefused opens the two directories in
// testdata/format-v1, written by the format-version-1 engine: one
// flushed (MANIFEST version 1, a segment and a WAL), one never flushed
// (a WAL alone). Each open must fail with an error that names format
// version 1, and leave the directory exactly as it found it: no key
// file, no new WAL, no orphan sweep.
func TestFormatV1DirectoryRefused(t *testing.T) {
	for _, name := range []string{"flushed", "walonly"} {
		t.Run(name, func(t *testing.T) {
			dir := copyLedgerDir(t, filepath.Join("testdata", "format-v1", name))
			before := dirListing(t, dir)
			_, err := New(Config{ID: 4, Dir: dir})
			if err == nil {
				t.Fatal("opened a format-version-1 directory")
			}
			if !strings.Contains(err.Error(), "format version 1") {
				t.Errorf("error does not name the format: %v", err)
			}
			after := dirListing(t, dir)
			if len(after) != len(before) {
				t.Fatalf("refused open changed the directory: %d files, was %d", len(after), len(before))
			}
			for f, data := range before {
				if !bytes.Equal(after[f], data) {
					t.Errorf("refused open changed %s", f)
				}
			}
		})
	}
}

// TestRestoreRecordsRefusesMalformed: a record whose token covers
// another digest than its content hash, or whose key, claim signature
// or token signature has the wrong size, or which has no token, is
// refused, and its batch with it: the ledger and its WAL are unchanged.
func TestRestoreRecordsRefusesMalformed(t *testing.T) {
	cases := map[string]func(r *Record){
		"digest differs":         func(r *Record) { r.Timestamp.Digest[0] ^= 1 },
		"short public key":       func(r *Record) { r.PubKey = r.PubKey[:ed25519.PublicKeySize-1] },
		"long public key":        func(r *Record) { r.PubKey = append(r.PubKey, 0) },
		"short claim signature":  func(r *Record) { r.HashSig = r.HashSig[:ed25519.SignatureSize-1] },
		"long claim signature":   func(r *Record) { r.HashSig = append(r.HashSig, 0) },
		"short token signature":  func(r *Record) { r.Timestamp.Sig = r.Timestamp.Sig[:ed25519.SignatureSize-1] },
		"long token signature":   func(r *Record) { r.Timestamp.Sig = append(r.Timestamp.Sig, 0) },
		"missing timestamp":      func(r *Record) { r.Timestamp = nil },
		"empty claim signature":  func(r *Record) { r.HashSig = nil },
		"empty token signature":  func(r *Record) { r.Timestamp.Sig = nil },
		"token over a zero hash": func(r *Record) { r.Timestamp.Digest = [32]byte{} },
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, dir := range []string{"", t.TempDir()} {
				l, err := New(Config{ID: 9, Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				recs := makeRecords(t, 9, 5, 21)
				tok := *recs[3].Timestamp
				recs[3].Timestamp = &tok
				cases[name](&recs[3])
				if err := l.RestoreRecords(recs); err == nil {
					t.Fatalf("dir=%q: restored a batch holding a record with a %s", dir, name)
				}
				if claims, _ := l.Count(); claims != 0 {
					t.Fatalf("dir=%q: a refused batch left %d claims", dir, claims)
				}
				if dir != "" {
					if sz := l.StorageStats().WALBytes; sz != 0 {
						t.Fatalf("a refused batch wrote %d WAL bytes", sz)
					}
				}
				if _, err := appendClaimFrame(nil, &recs[3]); err == nil {
					t.Fatalf("encoded a claim frame for a record with a %s", name)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDecodedRecordVerifies: a claim made through Claim and read back
// from its segment frame, which keeps no token digest, carries the same
// token: it verifies under TimestampKey and covers the content hash.
func TestDecodedRecordVerifies(t *testing.T) {
	l, err := New(Config{ID: 3, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	o := newOwner(t)
	r := o.claim(t, l, hashOf("decoded"), false)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, err := l.Record(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := tsa.Verify(l.TimestampKey(), rec.Timestamp); err != nil {
		t.Fatalf("decoded token does not verify: %v", err)
	}
	if rec.Timestamp.Digest != hashOf("decoded") || !bytes.Equal(rec.Timestamp.Marshal(), r.Timestamp.Marshal()) {
		t.Fatal("decoded token differs from the receipt's")
	}
}
