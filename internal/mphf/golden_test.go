package mphf

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/parallel"
)

// goldenImages pins the SHA-256 of sealed MPHF images built from fixed
// keys and seeds. TestBuildBitIdenticalAcrossWorkerCounts compares
// worker counts within one tree; these digests compare the build across
// commits, so a change to hashing, the peel order, the orientation or
// the image layout shows up here even when it is worker-count stable.
// Regenerate them only for a deliberate change of the image format.
var goldenImages = []struct {
	n       int
	keySeed uint64
	seed    uint64
	digest  string
}{
	{1 << 10, 101, 7, "baa57eca91cd846e96e4f81b91948fa3f8778d0d8b6e01a40c73b68693f5583e"},
	{1 << 17, 117, 42, "93c59b817e5dd5f22b13c31e7098b478d17fa13b06e54885e5d7bfa77da45ab2"},
}

func TestBuildBitIdenticalGoldenDigests(t *testing.T) {
	for _, tc := range goldenImages {
		keys := randomKeys(tc.n, tc.keySeed)
		for _, workers := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("n=%d/W=%d", tc.n, workers), func(t *testing.T) {
				pool := parallel.NewPool(workers)
				defer pool.Close()
				f, err := buildOn(pool, keys, DefaultGamma, tc.seed, 10)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				sum := sha256.Sum256(f.Bytes())
				if got := hex.EncodeToString(sum[:]); got != tc.digest {
					t.Fatalf("image digest %s, want %s", got, tc.digest)
				}
			})
		}
	}
}
