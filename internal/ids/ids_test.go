package ids

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewIsUnique(t *testing.T) {
	seen := make(map[PhotoID]bool)
	for i := 0; i < 1000; i++ {
		id, err := New(7)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if id.Ledger != 7 {
			t.Fatalf("ledger = %d, want 7", id.Ledger)
		}
		if seen[id] {
			t.Fatalf("duplicate id %v after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestZero(t *testing.T) {
	// The zero identifier is never issued.
	id, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if id == (PhotoID{}) {
		t.Error("New issued the zero id")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	id, err := New(0xDEADBEEF)
	if err != nil {
		t.Fatal(err)
	}
	got := FromBytes(id.Bytes())
	if got != id {
		t.Errorf("FromBytes(Bytes()) = %v, want %v", got, id)
	}
}

func TestStringRoundTrip(t *testing.T) {
	for i := 0; i < 200; i++ {
		id, err := New(LedgerID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		s := id.String()
		if len(s) != 28 {
			t.Fatalf("len(String()) = %d, want 28", len(s))
		}
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got != id {
			t.Fatalf("Parse(String()) = %v, want %v", got, id)
		}
	}
}

func TestParseCaseInsensitive(t *testing.T) {
	id, err := New(42)
	if err != nil {
		t.Fatal(err)
	}
	s := strings.ToLower(id.String())
	got, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse lowercase: %v", err)
	}
	if got != id {
		t.Errorf("lowercase parse mismatch")
	}
}

func TestParseCrockfordAliases(t *testing.T) {
	id, err := New(42)
	if err != nil {
		t.Fatal(err)
	}
	s := id.String()
	// Replace any '0' with 'O' and '1' with 'I'/'L'; decode must still work.
	alias := strings.NewReplacer("0", "O", "1", "I").Replace(s)
	got, err := Parse(alias)
	if err != nil {
		t.Fatalf("Parse with aliases: %v", err)
	}
	if got != id {
		t.Errorf("alias parse mismatch")
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	id, err := New(42)
	if err != nil {
		t.Fatal(err)
	}
	s := id.String()

	if _, err := Parse(s[:27]); err == nil {
		t.Error("short string accepted")
	}
	if _, err := Parse(s + "0"); err == nil {
		t.Error("long string accepted")
	}
	if _, err := Parse(strings.Replace(s, s[:1], "!", 1)); err == nil {
		t.Error("invalid character accepted")
	}

	// Flip one character; the CRC must catch it (or the char becomes an
	// alias of itself, which we avoid by picking a distinct replacement).
	for i := 0; i < len(s); i++ {
		c := s[i]
		var repl byte = 'Z'
		if c == 'Z' {
			repl = '2'
		}
		mut := s[:i] + string(repl) + s[i+1:]
		if mut == s {
			continue
		}
		if got, err := Parse(mut); err == nil && got == FromBytes(id.Bytes()) {
			t.Errorf("corruption at %d undetected", i)
		}
	}
}

func TestKeyLength(t *testing.T) {
	id, err := New(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(id.Key()) != 16 {
		t.Errorf("Key length = %d, want 16", len(id.Key()))
	}
}

func TestUint64PairDistinct(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	ah, al := a.Uint64Pair()
	bh, bl := b.Uint64Pair()
	if ah == bh && al == bl {
		t.Error("two fresh ids produced identical uint64 pairs")
	}
}

// Property: String/Parse round-trips for arbitrary id contents, not just
// CSPRNG-issued ones.
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(ledger uint32, rec [12]byte) bool {
		id := PhotoID{Ledger: LedgerID(ledger), Rec: rec}
		got, err := Parse(id.String())
		return err == nil && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Bytes/FromBytes round-trips.
func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(ledger uint32, rec [12]byte) bool {
		id := PhotoID{Ledger: LedgerID(ledger), Rec: rec}
		return FromBytes(id.Bytes()) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkString(b *testing.B) {
	id, err := New(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = id.String()
	}
}

func BenchmarkParse(b *testing.B) {
	id, err := New(1)
	if err != nil {
		b.Fatal(err)
	}
	s := id.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(s); err != nil {
			b.Fatal(err)
		}
	}
}
