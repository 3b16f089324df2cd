package tsa

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestStampVerify(t *testing.T) {
	a, err := newAuthority(time.Now)
	if err != nil {
		t.Fatal(err)
	}
	tok := stamp(a, []byte("hello"))
	if err := Verify(a.PublicKey(), tok); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if tok.Digest != sha256.Sum256([]byte("hello")) {
		t.Error("token does not carry the stamped digest")
	}
}

// newAuthority creates an authority with a fresh key.
func newAuthority(now func() time.Time) (*Authority, error) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return NewFromKey(priv, now, 0), nil
}

// TestNewFromKeyResumes: an authority recreated from its key, past the
// last serial it issued, is the same authority: its earlier tokens
// verify under its key and its serials continue above them.
func TestNewFromKeyResumes(t *testing.T) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	a := NewFromKey(priv, time.Now, 0)
	var before []*Token
	for i := 0; i < 3; i++ {
		before = append(before, stamp(a, []byte{byte(i)}))
	}
	b := NewFromKey(priv, time.Now, before[len(before)-1].Serial)
	if !b.PublicKey().Equal(a.PublicKey()) {
		t.Fatal("recreated authority publishes another key")
	}
	for _, tok := range before {
		if err := Verify(b.PublicKey(), tok); err != nil {
			t.Fatalf("serial %d: %v", tok.Serial, err)
		}
	}
	if got := stamp(b, []byte("after")).Serial; got != 4 {
		t.Fatalf("first serial after resuming past 3 = %d, want 4", got)
	}
}

// stamp stamps the SHA-256 of msg.
func stamp(a *Authority, msg []byte) *Token { return a.Stamp(sha256.Sum256(msg)) }

func TestVerifyRejectsTamperedToken(t *testing.T) {
	a, err := newAuthority(time.Now)
	if err != nil {
		t.Fatal(err)
	}
	tok := stamp(a, []byte("hello"))

	mutTime := *tok
	mutTime.Time = tok.Time.Add(time.Hour)
	if err := Verify(a.PublicKey(), &mutTime); err == nil {
		t.Error("backdated token verified")
	}

	mutDigest := *tok
	mutDigest.Digest[0] ^= 1
	if err := Verify(a.PublicKey(), &mutDigest); err == nil {
		t.Error("digest-swapped token verified")
	}

	mutSerial := *tok
	mutSerial.Serial++
	if err := Verify(a.PublicKey(), &mutSerial); err == nil {
		t.Error("serial-bumped token verified")
	}
}

func TestVerifyRejectsWrongAuthority(t *testing.T) {
	a, err := newAuthority(time.Now)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newAuthority(time.Now)
	if err != nil {
		t.Fatal(err)
	}
	tok := stamp(a, []byte("x"))
	if err := Verify(b.PublicKey(), tok); err == nil {
		t.Error("token verified under a different authority's key")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	a, err := newAuthority(time.Now)
	if err != nil {
		t.Fatal(err)
	}
	tok := stamp(a, []byte("payload"))
	got, err := Unmarshal(tok.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Serial != tok.Serial || !got.Time.Equal(tok.Time) || got.Digest != tok.Digest {
		t.Error("round trip changed fields")
	}
	if err := Verify(a.PublicKey(), got); err != nil {
		t.Errorf("round-tripped token fails verification: %v", err)
	}
}

func TestUnmarshalRejectsBadLength(t *testing.T) {
	if _, err := Unmarshal([]byte("short")); err == nil {
		t.Error("short token accepted")
	}
}

func TestSerialsMonotonic(t *testing.T) {
	a, err := newAuthority(time.Now)
	if err != nil {
		t.Fatal(err)
	}
	last := uint64(0)
	for i := 0; i < 100; i++ {
		tok := a.Stamp(sha256.Sum256([]byte{byte(i)}))
		if tok.Serial <= last {
			t.Fatalf("serial %d not greater than %d", tok.Serial, last)
		}
		last = tok.Serial
	}
}

func TestConcurrentStampsUnique(t *testing.T) {
	a, err := newAuthority(time.Now)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	serials := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			serials[i] = stamp(a, []byte{byte(i)}).Serial
		}(i)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, s := range serials {
		if seen[s] {
			t.Fatalf("duplicate serial %d", s)
		}
		seen[s] = true
	}
}

func TestEarlier(t *testing.T) {
	base := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	clock := base
	a, err := newAuthority(func() time.Time { return clock })
	if err != nil {
		t.Fatal(err)
	}
	t1 := stamp(a, []byte("first"))
	clock = base.Add(time.Second)
	t2 := stamp(a, []byte("second"))
	if !Earlier(t1, t2, true) || Earlier(t2, t1, true) || !Earlier(t1, t2, false) || Earlier(t2, t1, false) {
		t.Error("time ordering wrong")
	}
	// Same instant, same authority: the serial breaks the tie.
	t3 := stamp(a, []byte("third"))
	t4 := stamp(a, []byte("fourth"))
	if !Earlier(t3, t4, true) || Earlier(t4, t3, true) {
		t.Error("serial tie-break wrong")
	}
	// Same instant, two authorities: their serials order nothing.
	b, err := newAuthority(func() time.Time { return clock })
	if err != nil {
		t.Fatal(err)
	}
	t5 := stamp(b, []byte("fifth"))
	if Earlier(t5, t4, false) || Earlier(t4, t5, false) {
		t.Errorf("cross-authority tie (serials %d and %d) ordered by serial", t5.Serial, t4.Serial)
	}
}

func TestClockInjection(t *testing.T) {
	want := time.Date(2030, 1, 2, 3, 4, 5, 0, time.UTC)
	a, err := newAuthority(func() time.Time { return want })
	if err != nil {
		t.Fatal(err)
	}
	tok := stamp(a, []byte("x"))
	if !tok.Time.Equal(want) {
		t.Errorf("token time %v, want %v", tok.Time, want)
	}
}

func BenchmarkStamp(b *testing.B) {
	a, err := newAuthority(time.Now)
	if err != nil {
		b.Fatal(err)
	}
	d := sha256.Sum256([]byte("bench"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Stamp(d)
	}
}

func BenchmarkVerify(b *testing.B) {
	a, err := newAuthority(time.Now)
	if err != nil {
		b.Fatal(err)
	}
	tok := stamp(a, []byte("bench"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(a.PublicKey(), tok); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: tokens round-trip through Marshal/Unmarshal for arbitrary
// digests and still verify.
func TestQuickTokenRoundTrip(t *testing.T) {
	a, err := newAuthority(time.Now)
	if err != nil {
		t.Fatal(err)
	}
	f := func(digest [32]byte) bool {
		tok := a.Stamp(digest)
		got, err := Unmarshal(tok.Marshal())
		if err != nil {
			return false
		}
		return got.Digest == digest && Verify(a.PublicKey(), got) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
