package mphf

import (
	"bytes"
	"testing"

	"repro/internal/layout"
	"repro/internal/parallel"
)

// TestLayoutRoundTripDeterministic is the offline-build/online-serve
// contract end to end: builds at workers 1, 3, and 8 seal byte-identical
// images, and a function re-opened from those bytes (the disk/mmap
// path) answers every build-key lookup exactly like the fresh build.
func TestLayoutRoundTripDeterministic(t *testing.T) {
	keys := randomKeys(20000, 31)
	var refImage []byte
	for _, workers := range []int{1, 3, 8} {
		pool := parallel.NewPool(workers)
		f, err := buildOn(pool, keys, DefaultGamma, 7, 10)
		pool.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		img := f.Bytes()
		if refImage == nil {
			refImage = img
		} else if !bytes.Equal(img, refImage) {
			t.Fatalf("workers=%d: marshaled image differs from the 1-worker image", workers)
		}
		// Round-trip through a fresh buffer, as a loader would.
		re, err := Open(layout.Aligned(bytes.Clone(img)))
		if err != nil {
			t.Fatalf("workers=%d: Open: %v", workers, err)
		}
		if re.Keys() != f.Keys() || re.Vertices() != f.Vertices() || re.Seed() != f.Seed() {
			t.Fatalf("workers=%d: reopened geometry differs", workers)
		}
		for _, k := range keys {
			if re.Lookup(k) != f.Lookup(k) {
				t.Fatalf("workers=%d: reopened lookup diverges on key %#x", workers, k)
			}
		}
	}
}

// TestOpenRejectsWrongKind pins the kind check of the typed loader.
func TestOpenRejectsWrongKind(t *testing.T) {
	im := layout.NewBloomier(1, [layout.Arity]uint64{1, 2, 3}, 4, 4)
	if _, err := Open(im.Marshal()); err == nil {
		t.Fatal("MPHF Open accepted a Bloomier image")
	}
	if _, err := FromImage(im); err == nil {
		t.Fatal("FromImage accepted a Bloomier image")
	}
}
