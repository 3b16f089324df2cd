package ledger

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"irs/internal/ids"
	"irs/internal/tsa"
)

// mappedSegments lists the files under dir this process has mapped, one
// entry per mapping, from /proc/self/maps; a file unlinked since it was
// mapped is listed under its old name. The test skips where the system
// has no /proc.
func mappedSegments(t *testing.T, dir string) []string {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps to read mappings from: %v", err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, dir+string(filepath.Separator)); i >= 0 {
			out = append(out, filepath.Base(strings.TrimSuffix(line[i:], " (deleted)")))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

// liveSegmentNames are the files of l's live segment list, sorted.
func liveSegmentNames(l *Ledger) []string {
	var out []string
	for _, sr := range l.store.segs.Load().segs {
		out = append(out, filepath.Base(sr.path))
	}
	slices.Sort(out)
	return out
}

// TestRetiredSegmentsUnmapped: a segment a compaction retires is
// unmapped once no reader holds its list, not kept until Close. After
// at least four background and explicit compactions, with sealed claims
// read through Apply, StatusBatch and Record between them and those
// readers done, the process maps exactly the live segments, once each;
// after Close it maps none.
func TestRetiredSegmentsUnmapped(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir, Shards: 8, MemtableRecords: 64, CompactAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	o := newOwner(t)
	var claimed []ids.PhotoID
	for i := 0; i < 40; i++ {
		claimed = append(claimed, o.claim(t, l, hashOf(fmt.Sprint("retire-", i)), false).ID)
	}
	recs := makeRecords(t, 9, 1200, 41)
	var explicit uint64
	for round := 0; l.StorageStats().Compactions < 4; round++ {
		if round == 12 {
			t.Fatalf("%d compactions in 12 rounds, want 4", l.StorageStats().Compactions)
		}
		if err := l.RestoreRecords(recs[round*100 : (round+1)*100]); err != nil {
			t.Fatal(err)
		}
		// The restore fills the memtable past its limit, which schedules
		// a background flush and, once three segments stand, a merge.
		// Waiting that out makes the count after each round a function
		// of the round rather than of the scheduler.
		l.store.bg.Wait()
		id := claimed[round]
		if err := l.Apply(id, OpRevoke, o.signOp(id, OpRevoke, 1)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := l.StatusBatch(claimed); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Record(claimed[len(claimed)-1-round]); err != nil {
			t.Fatal(err)
		}
		if round%4 == 3 {
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
			explicit++
		}
	}
	if c := l.StorageStats().Compactions; c == explicit {
		t.Fatalf("all %d compactions were explicit; want one merge the engine scheduled itself", c)
	}
	// The last compaction waits out any background flush or merge, and
	// leaves nothing for one to start.
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, want := mappedSegments(t, dir), liveSegmentNames(l); !slices.Equal(got, want) {
		t.Fatalf("mapped %v, want only the live segments %v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mappedSegments(t, dir); len(got) != 0 {
		t.Fatalf("after Close still mapped: %v", got)
	}
}

// TestSealedReadsAcrossCompactionsHammer runs owner ops, StatusBatch
// and Record on sealed claims while restores drive background flushes
// and compactions, which retire and unmap segments under the readers:
// every op verifies against the key read in place from a segment frame,
// every status is the one its owner last set, and every record read back
// carries its own key, content hash and a token that verifies. A reader
// that read a segment after its unmapping would fault.
func TestSealedReadsAcrossCompactionsHammer(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir, Shards: 8, MemtableRecords: 48, CompactAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const owners, perOwner = 2, 24
	type claim struct {
		id   ids.PhotoID
		hash [32]byte
		o    *owner
	}
	var claims [owners][]claim
	var all []ids.PhotoID
	for w := range claims {
		o := newOwner(t)
		for i := 0; i < perOwner; i++ {
			h := hashOf(fmt.Sprint("hammer-", w, "-", i))
			c := claim{o.claim(t, l, h, false).ID, h, o}
			claims[w] = append(claims[w], c)
			all = append(all, c.id)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	rounds := 30
	if raceEnabled {
		rounds = 20
	}
	filler := makeRecords(t, 9, rounds*60, 43)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	// Restores: background flushes and compactions, plus explicit ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for r := 0; r < rounds; r++ {
			if err := l.RestoreRecords(filler[r*60 : (r+1)*60]); err != nil {
				fail(err)
				return
			}
			if r%5 == 4 {
				if err := l.Compact(); err != nil {
					fail(err)
					return
				}
			}
		}
	}()
	// One op worker per owner, so no two ops race for one sequence
	// number: each flips its claims in turn and remembers the state.
	want := make([][]State, owners)
	for w := range claims {
		want[w] = make([]State, perOwner)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seq := make([]uint64, perOwner)
			for i := range want[w] {
				want[w][i] = StateActive
			}
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				i := k % perOwner
				c := claims[w][i]
				op, st := OpRevoke, StateRevoked
				if want[w][i] == StateRevoked {
					op, st = OpUnrevoke, StateActive
				}
				if err := l.Apply(c.id, op, c.o.signOp(c.id, op, seq[i]+1)); err != nil {
					fail(fmt.Errorf("owner %d claim %d op %d: %w", w, i, seq[i]+1, err))
					return
				}
				seq[i]++
				want[w][i] = st
			}
		}(w)
	}
	// Readers: status of every claim, and whole records.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				proofs, err := l.StatusBatch(all)
				if err != nil {
					fail(err)
					return
				}
				for i, p := range proofs {
					if p.State != StateActive && p.State != StateRevoked {
						fail(fmt.Errorf("claim %d reads %v", i, p.State))
						return
					}
				}
				c := claims[(k+r)%owners][k%perOwner]
				rec, err := l.Record(c.id)
				if err != nil {
					fail(err)
					return
				}
				if !bytes.Equal(rec.PubKey, c.o.pub) || rec.ContentHash != c.hash || rec.Timestamp.Digest != c.hash {
					fail(fmt.Errorf("record %s read back with another key or hash", c.id))
					return
				}
				if err := tsa.Verify(l.TimestampKey(), rec.Timestamp); err != nil {
					fail(fmt.Errorf("record %s: token: %w", c.id, err))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := l.StorageStats().Compactions; n < 3 {
		t.Fatalf("%d compactions under the hammer, want at least 3", n)
	}
	for w := range claims {
		mine := make([]ids.PhotoID, perOwner)
		for i, c := range claims[w] {
			mine[i] = c.id
		}
		proofs, err := l.StatusBatch(mine)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range proofs {
			if p.State != want[w][i] {
				t.Fatalf("owner %d claim %d: state %v, want %v", w, i, p.State, want[w][i])
			}
		}
	}
}
