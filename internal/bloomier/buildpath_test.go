package bloomier

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/layout"
	"repro/internal/parallel"
)

// buildSerialPeel is the pre-ordered-peel construction — sequential
// queue peel plus serial reverse-order back-substitution — kept in the
// tests as the baseline BenchmarkBuildStaticMap measures against and as
// an equality oracle (build keys look up identical values regardless of
// the peel order: every construction solves the same constraint system
// exactly).
func buildSerialPeel(keys, values []uint64, gamma float64, seed uint64, maxTries int) (*Filter, error) {
	m := len(keys)
	subSize := int(gamma*float64(m))/arity + 1
	if subSize < 2 {
		subSize = 2
	}
	for try := 0; try < maxTries; try++ {
		attemptSeed, hseed := layout.AttemptSeeds(seed, try, builder.Salt)
		n := subSize * arity
		edges := make([]uint32, len(keys)*arity)
		for i, k := range keys {
			vs := layout.VertexTriple(hseed, subSize, k)
			copy(edges[i*arity:], vs[:])
		}
		g := hypergraph.FromEdges(n, arity, edges, subSize)
		peel := core.Sequential(g, 2)
		if !peel.Empty() {
			continue
		}
		im := layout.NewBloomier(attemptSeed, hseed, m, subSize)
		for i := len(peel.PeelOrder) - 1; i >= 0; i-- {
			e := int(peel.PeelOrder[i])
			free := peel.FreeVertex[e]
			acc := values[e]
			for _, u := range g.EdgeVertices(e) {
				if u != free {
					acc ^= im.Slots[u]
				}
			}
			im.Slots[free] = acc
		}
		im.Marshal()
		return &Filter{im: im}, nil
	}
	return nil, ErrBuildFailed
}

// TestBuildBitIdenticalAcrossWorkerCounts is the serial-equivalence
// contract of the ordered-peel build: the same seed produces the same
// slot array — byte for byte — on pools of 1, 3, and 8 workers, and
// build keys look up exactly the values of the old serial-peel
// construction (both solve the same triangular system).
func TestBuildBitIdenticalAcrossWorkerCounts(t *testing.T) {
	keys, values := buildInputs(25000, 13)
	oracle, err := buildSerialPeel(keys, values, DefaultGamma, 7, 10)
	if err != nil {
		t.Fatalf("serial oracle: %v", err)
	}
	var ref *Filter
	for _, workers := range []int{1, 3, 8} {
		pool := parallel.NewPool(workers)
		f, err := buildOn(pool, keys, values, DefaultGamma, 7, 10)
		pool.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = f
		} else if !bytes.Equal(f.Bytes(), ref.Bytes()) {
			t.Fatalf("workers=%d: image not byte-identical to the 1-worker build", workers)
		}
		for i, k := range keys {
			if f.Lookup(k) != values[i] || f.Lookup(k) != oracle.Lookup(k) {
				t.Fatalf("workers=%d: lookup diverges from serial construction on key %#x", workers, k)
			}
		}
	}
}

// TestBuildFailedReportsSurvivors pins the diagnosable failure error:
// above the threshold every attempt leaves a 2-core and the error wraps
// ErrBuildFailed with the last attempt's survivor count.
func TestBuildFailedReportsSurvivors(t *testing.T) {
	// γ = 1.12 → density 0.893 > c*(2,3) ≈ 0.818: peeling fails w.h.p.
	keys, values := buildInputs(20000, 19)
	_, err := build(keys, values, 1.12, 3, 2)
	if !errors.Is(err, ErrBuildFailed) {
		t.Fatalf("err = %v, want ErrBuildFailed", err)
	}
	if !strings.Contains(err.Error(), "edges left in 2-core after attempt 2") {
		t.Fatalf("error does not surface the survivor count: %v", err)
	}
}

// BenchmarkBuildStaticMap is the build-path benchmark: the old
// serial-peel construction against the ordered-peel build at several
// pool sizes (pools hoisted out of the timed loop).
func BenchmarkBuildStaticMap(b *testing.B) {
	keys, values := buildInputs(1<<17, 1)
	b.Run("SerialPeel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := buildSerialPeel(keys, values, DefaultGamma, 42, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		pool := parallel.NewPool(workers)
		b.Run(fmt.Sprintf("Ordered/W=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := buildOn(pool, keys, values, DefaultGamma, 42, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
		pool.Close()
	}
}
