package bloom

import (
	"errors"
	"testing"
)

// windowFilter returns a filter holding keys [0, n).
func windowFilter(t *testing.T, n uint64) *Filter {
	t.Helper()
	f, err := New(4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		f.Add(i)
	}
	return f
}

// TestWindowInstallDropsRenumberedEpochs: installing an epoch at or
// below the newest held one (a restarted upstream) drops every held
// epoch from it on, so Latest serves the install and the dropped
// numbers no longer validate a base; older epochs still serve deltas.
func TestWindowInstallDropsRenumberedEpochs(t *testing.T) {
	w := NewWindow(8)
	if _, _, err := w.Sync(0, nil); !errors.Is(err, ErrNoEpoch) {
		t.Fatalf("empty window: got %v, want ErrNoEpoch", err)
	}
	held := make([]*Filter, 7)
	for e := uint64(1); e <= 6; e++ {
		held[e] = windowFilter(t, e*10)
		w.Install(e, held[e])
	}
	renumbered := windowFilter(t, 25)
	w.Install(3, renumbered)
	if epoch, f, _ := w.Latest(); epoch != 3 || f != renumbered {
		t.Fatalf("Latest = epoch %d (the install: %v), want the install at epoch 3", epoch, f == renumbered)
	}
	for _, tc := range []struct {
		from     uint64
		wantSnap bool
	}{{2, false}, {3, true}, {5, true}} {
		h := held[tc.from].Hash()
		payload, latest, err := w.Sync(tc.from, h[:])
		if err != nil || latest != 3 {
			t.Fatalf("sync from %d: latest %d, %v", tc.from, latest, err)
		}
		if IsSnapshot(payload) != tc.wantSnap {
			t.Errorf("sync from %d: snapshot = %v, want %v", tc.from, IsSnapshot(payload), tc.wantSnap)
		}
		got, err := ApplyUpdate(held[tc.from], payload)
		if err != nil || got.Hash() != renumbered.Hash() {
			t.Fatalf("sync from %d does not land on the install: %v", tc.from, err)
		}
	}
}

// TestPullFallsBackToColdSync: a payload the held filter cannot absorb
// is followed by exactly one cold sync, whose snapshot is installed; a
// current holder makes one call and moves nothing.
func TestPullFallsBackToColdSync(t *testing.T) {
	w := NewWindow(2)
	target := windowFilter(t, 50)
	w.Install(4, target)
	held := windowFilter(t, 20)
	// A delta computed from some other base: ErrBaseMismatch on held.
	wrongBase, err := DeltaWithBase(windowFilter(t, 10), target)
	if err != nil {
		t.Fatal(err)
	}
	var calls []uint64
	src := func(from uint64, baseHash []byte) ([]byte, uint64, error) {
		calls = append(calls, from)
		if len(calls) == 1 {
			return wrongBase, 4, nil
		}
		return w.Sync(from, baseHash)
	}
	next, latest, n, err := Pull(src, 3, held)
	if err != nil || latest != 4 || next.Hash() != target.Hash() {
		t.Fatalf("Pull: latest %d, err %v", latest, err)
	}
	if len(calls) != 2 || calls[1] != 0 || n != len(wrongBase)+len(target.Marshal()) {
		t.Errorf("calls %v moving %d bytes, want a cold second call moving both payloads", calls, n)
	}

	next, latest, n, err = Pull(w.Sync, 4, target)
	if err != nil || next != nil || latest != 4 || n != 0 {
		t.Errorf("current holder: next %v latest %d bytes %d err %v", next, latest, n, err)
	}
}
