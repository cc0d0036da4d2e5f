package bloomier

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
	"repro/internal/rng"
)

func buildInputs(n int, seed uint64) (keys, values []uint64) {
	gen := rng.New(seed)
	seen := make(map[uint64]bool, n)
	for len(keys) < n {
		k := gen.Uint64()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
			values = append(values, gen.Uint64())
		}
	}
	return keys, values
}

// build is BuildCtx on the default pool with a background context.
func build(keys, values []uint64, gamma float64, seed uint64, maxTries int) (*Filter, error) {
	return buildOn(parallel.Default(), keys, values, gamma, seed, maxTries)
}

// buildOn is BuildCtx on pool with a background context.
func buildOn(pool *parallel.Pool, keys, values []uint64, gamma float64, seed uint64, maxTries int) (*Filter, error) {
	return BuildCtx(context.Background(), keys, values, gamma, seed, maxTries, pool)
}

func TestBuildAndLookup(t *testing.T) {
	keys, values := buildInputs(50000, 1)
	f, err := build(keys, values, DefaultGamma, 42, 10)
	if err != nil {
		t.Fatalf("BuildCtx: %v", err)
	}
	for i, k := range keys {
		if got := f.Lookup(k); got != values[i] {
			t.Fatalf("Lookup(%#x) = %#x, want %#x", k, got, values[i])
		}
	}
	// Space: ~γ slots per key.
	if s := f.Slots(); s > int(1.5*float64(len(keys))) {
		t.Errorf("Slots() = %d, too large for %d keys", s, len(keys))
	}
}

func TestSmallMaps(t *testing.T) {
	for _, n := range []int{1, 2, 7, 33} {
		keys, values := buildInputs(n, uint64(100+n))
		f, err := build(keys, values, DefaultGamma, 7, 20)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, k := range keys {
			if f.Lookup(k) != values[i] {
				t.Fatalf("n=%d: wrong value", n)
			}
		}
	}
}

func TestLengthMismatch(t *testing.T) {
	if _, err := build([]uint64{1, 2}, []uint64{1}, DefaultGamma, 1, 5); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestDuplicateKeysRejected: duplicate keys hash to identical edges,
// which no seed can peel, so the first failed attempt checks for them
// and the build returns ErrDuplicateKeys instead of exhausting its
// attempts into ErrBuildFailed.
func TestDuplicateKeysRejected(t *testing.T) {
	for _, n := range []int{4, 50000} {
		keys, values := buildInputs(n, uint64(n))
		keys[n-1] = keys[n/2]
		_, err := build(keys, values, DefaultGamma, 1, 10)
		if !errors.Is(err, ErrDuplicateKeys) || errors.Is(err, ErrBuildFailed) {
			t.Fatalf("n=%d: err = %v, want ErrDuplicateKeys", n, err)
		}
	}
}

func TestGammaTooSmall(t *testing.T) {
	keys, values := buildInputs(10, 3)
	if _, err := build(keys, values, 1.0, 1, 3); err == nil {
		t.Fatal("gamma 1.0 accepted")
	}
}

func TestZeroValuesFine(t *testing.T) {
	// Unlike the IBLT (where 0 keys break XOR accounting), zero *values*
	// are perfectly representable here.
	keys, _ := buildInputs(100, 4)
	values := make([]uint64, len(keys))
	f, err := build(keys, values, DefaultGamma, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if f.Lookup(k) != 0 {
			t.Fatal("zero value corrupted")
		}
	}
}

func TestDeterministic(t *testing.T) {
	keys, values := buildInputs(1000, 5)
	a, err := build(keys, values, DefaultGamma, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := build(keys, values, DefaultGamma, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatal("same-seed builds disagree")
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%400) + 1
		keys, values := buildInputs(n, seed)
		flt, err := build(keys, values, DefaultGamma, seed^0xf00, 20)
		if err != nil {
			return false
		}
		for i, k := range keys {
			if flt.Lookup(k) != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Error(err)
	}
}

func TestBuildParallelSmall(t *testing.T) {
	for _, n := range []int{1, 3, 10, 100} {
		keys, values := buildInputs(n, uint64(200+n))
		f, err := build(keys, values, DefaultGamma, 9, 20)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, k := range keys {
			if f.Lookup(k) != values[i] {
				t.Fatalf("n=%d: wrong value", n)
			}
		}
	}
}

func TestBuildParallelValidation(t *testing.T) {
	if _, err := build([]uint64{1}, []uint64{1, 2}, DefaultGamma, 1, 5); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := build([]uint64{1, 2}, []uint64{3, 4}, 1.0, 1, 5); err == nil {
		t.Error("tiny gamma accepted")
	}
}

func BenchmarkBuild(b *testing.B) {
	keys, values := buildInputs(1<<16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(keys, values, DefaultGamma, uint64(i), 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	keys, values := buildInputs(1<<16, 1)
	f, err := build(keys, values, DefaultGamma, 1, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= f.Lookup(keys[i&(1<<16-1)])
	}
	_ = sink
}

// TestBuildWithPoolMatchesDefault proves the pooled construction path
// solves the same constraint system: build keys look up identical
// values at any pool size.
func TestBuildWithPoolMatchesDefault(t *testing.T) {
	keys, values := buildInputs(20000, 9)
	for _, workers := range []int{1, 3} {
		pool := parallel.NewPool(workers)
		f, err := buildOn(pool, keys, values, DefaultGamma, 7, 10)
		if err != nil {
			t.Fatalf("BuildCtx(workers=%d): %v", workers, err)
		}
		for i, k := range keys {
			if got := f.Lookup(k); got != values[i] {
				t.Fatalf("workers=%d: Lookup(%#x) = %#x, want %#x", workers, k, got, values[i])
			}
		}
		pool.Close()
	}
}

// TestConcurrentStaticMapBuildsSharedPool runs several static-map
// builds concurrently on one shared pool.
func TestConcurrentStaticMapBuildsSharedPool(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	group := pool.NewGroup(4)
	for j := 0; j < 6; j++ {
		group.Go(func(p *parallel.Pool) error {
			keys, values := buildInputs(1500+100*j, uint64(90+j))
			f, err := buildOn(p, keys, values, DefaultGamma, uint64(7+j), 10)
			if err != nil {
				return err
			}
			for i, k := range keys {
				if f.Lookup(k) != values[i] {
					return fmt.Errorf("job %d: wrong value for key %#x", j, k)
				}
			}
			return nil
		})
	}
	if err := group.Wait(); err != nil {
		t.Fatal(err)
	}
}
