package bloom

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzUnmarshal: hostile filter encodings must error cleanly.
func FuzzUnmarshal(f *testing.F) {
	fl, err := New(1<<10, 3)
	if err != nil {
		f.Fatal(err)
	}
	fl.Add(42)
	f.Add(fl.Marshal())
	f.Add([]byte("IRSBF1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Accepted filters must round-trip.
		b := got.Marshal()
		if _, err := Unmarshal(b); err != nil {
			t.Fatalf("re-marshal of accepted filter fails: %v", err)
		}
	})
}

// FuzzApply: hostile deltas must never corrupt the filter silently —
// either they apply (valid format) or they error. Frames of the removed
// IRSBD1 format carry no base hash and must always error.
func FuzzApply(f *testing.F) {
	base, err := New(1<<10, 3)
	if err != nil {
		f.Fatal(err)
	}
	next := base.Clone()
	next.Add(7)
	f.Add(v1Frame(base, next))
	d, err := DeltaWithBase(base, next)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(d)
	f.Add([]byte("IRSBD1"))
	f.Add([]byte("IRSBD2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := New(1<<10, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, err = apply(fl, nil, data) // must not panic
		if err == nil && bytes.HasPrefix(data, []byte("IRSBD1")) {
			t.Fatal("accepted a frame of the removed IRSBD1 format")
		}
	})
}

// FuzzApplyUpdate: the sync-protocol payload decoder — snapshot frames,
// delta frames, and hostile bytes dispatched by magic — must never
// panic, and whatever it accepts must reproduce a coherent filter. A
// delta frame that applies must hash to its own encoded target
// (anything else means the base/result validation has a hole), and a
// frame of the removed IRSBD1 format must never apply.
func FuzzApplyUpdate(f *testing.F) {
	base, err := New(1<<10, 3)
	if err != nil {
		f.Fatal(err)
	}
	base.Add(11)
	next := base.Clone()
	next.Add(7)
	if d, err := DeltaWithBase(base, next); err == nil {
		f.Add(d)
	}
	f.Add(v1Frame(base, next))
	if u, err := Update(base, next); err == nil {
		f.Add(u)
	}
	f.Add(next.Marshal())
	f.Add([]byte("IRSBF1"))
	f.Add([]byte("IRSBD2"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := New(1<<10, 3)
		if err != nil {
			t.Fatal(err)
		}
		fl.Add(11)
		before := fl.Hash()
		got, err := ApplyUpdate(fl, data)
		if fl.Hash() != before {
			t.Fatal("ApplyUpdate mutated its base")
		}
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, []byte("IRSBD1")) {
			t.Fatal("accepted a frame of the removed IRSBD1 format")
		}
		if bytes.HasPrefix(data, []byte("IRSBD2")) {
			var want [32]byte
			copy(want[:], data[66:98])
			if got.Hash() != want {
				t.Fatal("accepted delta frame does not hash to its encoded target")
			}
		}
	})
}

// FuzzMergeDeltas drives a Window through fuzzed epochs — published by
// Advance from a flip list or by Install, some renumbering an epoch
// already held — and holds every answer to the window the old serve
// rule kept: whole filters per epoch, each base served Update(base,
// newest). A merged delta must be byte-identical to DeltaWithBase of
// its two ends, a one-behind answer the stored step, and a snapshot
// wherever Update's size rule picks one. A second window that follows
// the first by Pull must answer alike.
func FuzzMergeDeltas(f *testing.F) {
	f.Add([]byte{1, 4, 3, 1, 2, 3, 2, 9, 9, 0x81, 200, 4, 1, 2, 3, 4})
	f.Add([]byte{0, 2, 40, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 1, 5})
	f.Add([]byte{3, 8, 0x41, 7, 2, 0xc2, 1, 1, 1, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		// 16 to 63 words: a delta's 98-byte header against a 154- to
		// 530-byte snapshot, so both answers occur.
		words, history := int(data[0]%48)+16, int(data[1]%8)+1
		data = data[2:]
		type held struct {
			epoch uint64
			f     *Filter
		}
		first, err := New(uint64(64*words), 2)
		if err != nil {
			t.Fatal(err)
		}
		w, follower := NewWindow(history), NewWindow(history)
		w.Install(1, first)
		if _, _, err := follower.Pull(w.Sync); err != nil {
			t.Fatal(err)
		}
		model := []held{{1, first}}
		for len(data) > 0 {
			c := data[0]
			data = data[1:]
			count := min(int(c&0x3f), len(data)/2)
			last := model[len(model)-1]
			next := last.f.Clone()
			for i := 0; i < count; i++ {
				pos := uint64(binary.BigEndian.Uint16(data[2*i:])) % next.m
				next.bits[pos/64] ^= 1 << (pos % 64)
			}
			data = data[2*count:]
			next.n = uint64(c)
			epoch := last.epoch + 1
			if c&0x40 != 0 && last.epoch > 1 {
				epoch = last.epoch - 1 // a renumbering upstream
			}
			if c&0x80 != 0 || epoch <= last.epoch {
				w.Install(epoch, next)
			} else {
				var flips []uint64
				for pos := range diffFlips(last.f.bits, next.bits) {
					flips = append(flips, pos)
				}
				if err := w.Advance(epoch, flips, next.n); err != nil {
					t.Fatal(err)
				}
			}
			keep := len(model)
			for keep > 0 && model[keep-1].epoch >= epoch {
				keep--
			}
			model = append(model[:keep], held{epoch, next})
			if len(model) > history {
				model = model[len(model)-history:]
			}
			if _, _, err := follower.Pull(w.Sync); err != nil {
				t.Fatal(err)
			}

			snap := next.Marshal()
			if got, latest, err := w.Sync(0, nil); err != nil || latest != epoch || !bytes.Equal(got, snap) {
				t.Fatalf("cold sync at epoch %d: latest %d, %v", epoch, latest, err)
			}
			for _, h := range model {
				hash := h.f.Hash()
				var want []byte
				if h.epoch != epoch {
					if want, err = Update(h.f, next); err != nil {
						t.Fatal(err)
					}
				}
				got, _, err := w.Sync(h.epoch, hash[:])
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("sync from %d to %d: %d bytes, want %d (%v)", h.epoch, epoch, len(got), len(want), err)
				}
				if fgot, _, err := follower.Sync(h.epoch, hash[:]); err != nil || !bytes.Equal(fgot, want) {
					t.Fatalf("follower sync from %d to %d: %d bytes, want %d (%v)", h.epoch, epoch, len(fgot), len(want), err)
				}
			}
		}
	})
}
