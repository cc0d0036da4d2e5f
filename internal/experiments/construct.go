package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// ConstructBenchConfig parameterizes the instance-construction timing
// sweep surfaced by cmd/peelsim and cmd/ablations: sequential
// (1-worker) vs pooled generation + CSR build, reported as edges/sec.
type ConstructBenchConfig struct {
	Ns      []int
	C       float64
	R       int
	Seed    uint64
	Reps    int // timing repetitions; the best rep is reported
	Workers int // parallel pool size; 0 = the default pool's size
}

// DefaultConstructBench returns a sweep over the sizes the paper's
// large experiments use, at density just below c*(2,4).
func DefaultConstructBench() ConstructBenchConfig {
	return ConstructBenchConfig{
		Ns:   []int{1 << 16, 1 << 20, 1 << 22},
		C:    0.75,
		R:    4,
		Seed: 2014,
		Reps: 3,
	}
}

// ConstructBenchRow is one instance size's sequential-vs-parallel
// construction timing.
type ConstructBenchRow struct {
	N, M     int
	Seq, Par time.Duration
}

// SeqRate returns sequential construction throughput in edges/sec.
func (r ConstructBenchRow) SeqRate() float64 { return float64(r.M) / r.Seq.Seconds() }

// ParRate returns pooled construction throughput in edges/sec.
func (r ConstructBenchRow) ParRate() float64 { return float64(r.M) / r.Par.Seconds() }

// RunConstructBench times Uniform construction end-to-end (chunk-keyed
// edge sampling + CSR incidence build) on a 1-worker pool and on the
// configured parallel pool. Both runs build the identical graph — the
// determinism contract of the pooled generators.
func RunConstructBench(cfg ConstructBenchConfig) []ConstructBenchRow {
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	seqPool := parallel.NewPool(1)
	defer seqPool.Close()
	parPool := parallel.NewPool(cfg.Workers)
	defer parPool.Close()

	best := func(pool *parallel.Pool, n, m int) time.Duration {
		b := time.Duration(1<<63 - 1)
		for rep := 0; rep < cfg.Reps; rep++ {
			gen := rng.NewStream(cfg.Seed, uint64(n))
			start := time.Now()
			hypergraph.Uniform(n, m, cfg.R, gen, pool)
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}

	var rows []ConstructBenchRow
	for _, n := range cfg.Ns {
		m := int(cfg.C * float64(n))
		rows = append(rows, ConstructBenchRow{
			N: n, M: m,
			Seq: best(seqPool, n, m),
			Par: best(parPool, n, m),
		})
	}
	return rows
}

// RenderConstructBench writes the sweep as a table.
func RenderConstructBench(w io.Writer, workers int, rows []ConstructBenchRow) {
	if workers <= 0 {
		workers = parallel.Workers()
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "n\tm\tseq\tpar(%dw)\tseq edges/s\tpar edges/s\tspeedup\n", workers)
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%v\t%v\t%.3g\t%.3g\t%.2fx\n",
			r.N, r.M,
			r.Seq.Round(time.Microsecond), r.Par.Round(time.Microsecond),
			r.SeqRate(), r.ParRate(),
			r.Seq.Seconds()/r.Par.Seconds())
	}
	tw.Flush()
}
