package hypergraph

import (
	"fmt"
	"testing"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// Construction benchmarks: sequential (workers=1, which takes the
// sequential generation and CSR fallbacks) vs the pooled parallel path.
// BENCHMARKS.md records measured numbers; CI runs these with
// -benchtime 1x as a smoke test.

var constructSizes = []int{1 << 16, 1 << 20, 1 << 22}

const (
	benchR = 4
	benchC = 0.75 // just below c*(2,4): the density every workload runs near
)

// benchWorkerCounts pits the sequential path (workers=1) against 2- and
// 4-worker pools regardless of GOMAXPROCS, so the parallel machinery is
// exercised even on small CI boxes (where it shows overhead, not
// speedup — BENCHMARKS.md notes which machine produced its numbers).
func benchWorkerCounts() []int { return []int{1, 2, 4} }

// BenchmarkConstructUniform measures end-to-end Uniform construction
// (chunk-keyed edge sampling + incidence build) in edges/sec.
func BenchmarkConstructUniform(b *testing.B) {
	for _, n := range constructSizes {
		m := int(benchC * float64(n))
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				pool := parallel.NewPool(w)
				defer pool.Close()
				gen := rng.New(1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Uniform(n, m, benchR, gen, pool)
				}
				b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
			})
		}
	}
}

// BenchmarkConstructPartitioned measures the Appendix B generator, the
// one every IBLT experiment pays per trial.
func BenchmarkConstructPartitioned(b *testing.B) {
	for _, n := range constructSizes {
		m := int(benchC * float64(n))
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				pool := parallel.NewPool(w)
				defer pool.Close()
				gen := rng.New(1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Partitioned(n, m, benchR, gen, pool)
				}
				b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
			})
		}
	}
}

// BenchmarkConstructCSR isolates the incidence build (the counting
// sort), rebuilding the CSR index over a fixed pre-sampled edge list —
// the path mphf/bloomier pay on every retry attempt.
func BenchmarkConstructCSR(b *testing.B) {
	for _, n := range constructSizes {
		m := int(benchC * float64(n))
		gen := rng.New(2)
		edges := make([]uint32, m*benchR)
		var tuple [MaxArity]uint32
		for e := 0; e < m; e++ {
			gen.SampleDistinct(tuple[:benchR], uint32(n))
			copy(edges[e*benchR:], tuple[:benchR])
		}
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				pool := parallel.NewPool(w)
				defer pool.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g := &Hypergraph{N: n, M: m, R: benchR, Edges: edges}
					g.buildIncidence(pool)
				}
				b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
			})
		}
	}
}
