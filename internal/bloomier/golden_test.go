package bloomier

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/parallel"
)

// goldenImages pins the SHA-256 of sealed Bloomier images built from
// fixed keys, values and seeds. TestBuildBitIdenticalAcrossWorkerCounts
// compares worker counts within one tree; these digests compare the
// build across commits, so a change to hashing, the peel order, the
// orientation or the image layout shows up here even when it is
// worker-count stable. Regenerate them only for a deliberate change of
// the image format.
var goldenImages = []struct {
	n       int
	keySeed uint64
	seed    uint64
	digest  string
}{
	{1 << 10, 201, 7, "0c6577b842c6037b96bcbe46d3e842b9fd87bc02d82f14aa4c97b690328364dc"},
	{1 << 17, 217, 42, "cdf1eccc2785bd9a8890a00997c1d30692ffa56e50f66c3864511e7587343b8c"},
}

func TestBuildBitIdenticalGoldenDigests(t *testing.T) {
	for _, tc := range goldenImages {
		keys, values := buildInputs(tc.n, tc.keySeed)
		for _, workers := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("n=%d/W=%d", tc.n, workers), func(t *testing.T) {
				pool := parallel.NewPool(workers)
				defer pool.Close()
				f, err := buildOn(pool, keys, values, DefaultGamma, tc.seed, 10)
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
