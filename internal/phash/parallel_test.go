package phash

import (
	"testing"

	"irs/internal/parallel"
	"irs/internal/photo"
)

// TestBatchMatchesElementwise checks the batch signature against its
// per-image function at several worker counts.
func TestBatchMatchesElementwise(t *testing.T) {
	ims := make([]*photo.Image, 24)
	for i := range ims {
		ims[i] = photo.Synth(int64(i)*17+1, 96, 64)
	}
	for _, w := range []int{1, 4, 8} {
		prev := parallel.SetWorkers(w)
		s := SignatureAll(ims)
		parallel.SetWorkers(prev)
		for i, im := range ims {
			if s[i] != NewSignature(im) {
				t.Fatalf("workers=%d: batch signature %d differs", w, i)
			}
		}
	}
	if len(SignatureAll(nil)) != 0 {
		t.Error("empty batch mishandled")
	}
}
