package bloom

import (
	"bytes"
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
		err = Apply(fl, data) // must not panic
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
