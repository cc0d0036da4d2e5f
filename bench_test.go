// Benchmarks regenerating each table and figure of "Parallel Peeling
// Algorithms" (scaled for testing.B; the cmd/ binaries run paper-sized
// sweeps), plus the ablation benches called out in DESIGN.md.
//
// Run everything:  go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/iblt"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// BenchmarkTable1 regenerates one Table 1 sweep (rounds vs n at densities
// straddling the threshold) per iteration, at reduced size.
func BenchmarkTable1(b *testing.B) {
	cfg := experiments.Table1Config{
		K: 2, R: 4,
		Cs:     []float64{0.70, 0.75, 0.80, 0.85},
		Ns:     []int{10000, 20000, 40000},
		Trials: 5,
		Seed:   2014,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable1(cfg)
		if res.Rows[0].Cells[0].Failed != 0 {
			b.Fatal("below-threshold failures")
		}
	}
}

// BenchmarkTable2 regenerates the recurrence-vs-simulation comparison.
func BenchmarkTable2(b *testing.B) {
	cfg := experiments.Table2Config{
		K: 2, R: 4, N: 200000, Cs: []float64{0.70, 0.85}, Rounds: 20, Trials: 3, Seed: 2014,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunTable2(cfg)
	}
}

// BenchmarkTable3 regenerates the r=3 IBLT timing table (insert + recover
// at loads 0.75 and 0.83).
func BenchmarkTable3(b *testing.B) {
	cfg := experiments.IBLTConfig{R: 3, Cells: 1 << 17, Loads: []float64{0.75, 0.83}, Trials: 1, Seed: 2014}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.RunIBLT(cfg)
		if res.Rows[0].PctRecovered < 0.999 {
			b.Fatal("r=3 load 0.75 failed to recover")
		}
	}
}

// BenchmarkTable4 regenerates the r=4 IBLT timing table.
func BenchmarkTable4(b *testing.B) {
	cfg := experiments.IBLTConfig{R: 4, Cells: 1 << 17, Loads: []float64{0.75, 0.83}, Trials: 1, Seed: 2014}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.RunIBLT(cfg)
		if res.Rows[0].PctRecovered < 0.999 {
			b.Fatal("r=4 load 0.75 failed to recover")
		}
	}
}

// BenchmarkTable5 regenerates the subtable subround sweep.
func BenchmarkTable5(b *testing.B) {
	cfg := experiments.Table5Config{
		K: 2, R: 4, Cs: []float64{0.70, 0.75}, Ns: []int{10000, 20000, 40000}, Trials: 5, Seed: 2014,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunTable5(cfg)
	}
}

// BenchmarkTable6 regenerates the subtable recurrence comparison.
func BenchmarkTable6(b *testing.B) {
	cfg := experiments.Table6Config{K: 2, R: 4, N: 200000, C: 0.70, Rounds: 7, Trials: 3, Seed: 2014}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunTable6(cfg)
	}
}

// BenchmarkFigure1 regenerates the near-threshold β traces.
func BenchmarkFigure1(b *testing.B) {
	cfg := experiments.DefaultFigure1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure1(cfg)
		if len(res.Series) != 2 {
			b.Fatal("bad figure")
		}
	}
}

// BenchmarkRoundsVsNu regenerates the Theorem 5 gap sweep.
func BenchmarkRoundsVsNu(b *testing.B) {
	cfg := experiments.DefaultNuSweep()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.RunNuSweep(cfg)
		if res.FitSlope <= 0 {
			b.Fatal("bad fit")
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationScan compares the frontier-tracking round
// implementation against the GPU-style full rescan on the same graph.
func BenchmarkAblationScan(b *testing.B) {
	g := NewUniformHypergraph(1<<19, 360000, 4, 1) // c ~ 0.69
	for _, bench := range []struct {
		name string
		scan core.ScanPolicy
	}{{"Frontier", core.Frontier}, {"FullScan", core.FullScan}} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := core.Parallel(g, 2, core.Options{Scan: bench.scan})
				if !res.Empty() {
					b.Fatal("peel failed")
				}
			}
		})
	}
}

// BenchmarkAblationSeqVsPar compares sequential queue peeling against the
// round-synchronous parallel peeler (the serial/parallel axis of Tables
// 3-4, on the raw hypergraph rather than through the IBLT).
func BenchmarkAblationSeqVsPar(b *testing.B) {
	g := NewUniformHypergraph(1<<20, 730000, 4, 1) // c ~ 0.70
	b.Run("Sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := Peel(g, 2); !res.Empty() {
				b.Fatal("peel failed")
			}
		}
	})
	b.Run("Parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := DefaultRuntime().Peel(context.Background(), g, 2, PeelOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Empty() {
				b.Fatal("peel failed")
			}
		}
	})
}

// BenchmarkAblationSubtableRounds compares plain parallel peeling with
// the subtable variant on the same partitioned graph — the Appendix B
// trade-off (subrounds ≈ 2× rounds at r=4, not 4×).
func BenchmarkAblationSubtableRounds(b *testing.B) {
	g := NewPartitionedHypergraph(1<<20, 730000, 4, 1)
	b.Run("PlainRounds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := DefaultRuntime().Peel(context.Background(), g, 2, PeelOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Empty() {
				b.Fatal("peel failed")
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
		}
	})
	b.Run("Subtables", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := peelSubtables(b, g, 2)
			if !res.Empty() {
				b.Fatal("peel failed")
			}
			b.ReportMetric(float64(res.Subrounds), "subrounds")
		}
	})
}

// BenchmarkFrontierCollect compares the two ways a parallel peel round
// can gather its next frontier: a mutex-guarded append to one shared
// slice (the pre-pool implementation) versus per-worker shards merged at
// the round barrier (what internal/core now does on the pool's worker
// IDs). Small sizes model the O(log log n) tail rounds.
func BenchmarkFrontierCollect(b *testing.B) {
	workers := parallel.Workers()
	if workers < 2 {
		workers = 4
	}
	p := parallel.NewPool(workers)
	defer p.Close()
	for _, n := range []int{512, 1 << 16} {
		keep := func(i int) bool { return i%3 == 0 } // ~1/3 survive, like a peel round
		b.Run(fmt.Sprintf("Mutex/n=%d", n), func(b *testing.B) {
			var mu sync.Mutex
			next := make([]uint32, 0, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				next = next[:0]
				p.For(n, 64, func(w, lo, hi int) {
					var local []uint32
					for j := lo; j < hi; j++ {
						if keep(j) {
							local = append(local, uint32(j))
						}
					}
					if len(local) > 0 {
						mu.Lock()
						next = append(next, local...)
						mu.Unlock()
					}
				})
			}
		})
		b.Run(fmt.Sprintf("Sharded/n=%d", n), func(b *testing.B) {
			shards := make([][]uint32, workers)
			next := make([]uint32, 0, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				next = next[:0]
				p.For(n, 64, func(w, lo, hi int) {
					local := shards[w]
					for j := lo; j < hi; j++ {
						if keep(j) {
							local = append(local, uint32(j))
						}
					}
					shards[w] = local
				})
				for w := range shards {
					next = append(next, shards[w]...)
					shards[w] = shards[w][:0]
				}
			}
		})
	}
}

// BenchmarkPeelWorkerCounts runs the full parallel peel below threshold
// at several pool sizes. The pool is hoisted out of the measured loop,
// so worker startup is not timed.
func BenchmarkPeelWorkerCounts(b *testing.B) {
	g := NewUniformHypergraph(1<<18, 180000, 4, 1) // c ~ 0.69
	for _, workers := range []int{1, 2, 4} {
		pool := parallel.NewPool(workers)
		opts := core.Options{Pool: pool}
		b.Run(fmt.Sprintf("W=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := core.Parallel(g, 2, opts); !res.Empty() {
					b.Fatal("peel failed")
				}
			}
		})
		pool.Close()
	}
}

// BenchmarkIBLTParallelRecovery isolates the recovery phase at the
// paper's below-threshold load.
func BenchmarkIBLTParallelRecovery(b *testing.B) {
	cells := 1 << 18
	keys := make([]uint64, int(0.75*float64(cells)))
	gen := rng.New(1)
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = gen.Uint64()
		}
	}
	master := iblt.New(cells, 3, 1)
	master.InsertAll(keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := master.Clone()
		b.StartTimer()
		if res := t.DecodeParallel(); !res.Complete {
			b.Fatal("decode failed")
		}
	}
}
