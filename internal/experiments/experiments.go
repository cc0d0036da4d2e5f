// Package experiments contains one runner per table and figure in the
// evaluation of Jiang, Mitzenmacher, and Thaler, "Parallel Peeling
// Algorithms" (SPAA 2014), plus the Theorem 5 gap-dependence sweep and
// the round-growth fits that check Theorems 1 and 3, and the
// design-choice ablations. Each runner takes an explicit config (tests run
// scaled-down versions; cmd/experiments runs a laptop preset, or the
// paper's full sizes with -full), returns typed rows, and renders a table
// matching the paper's layout.
//
// The runners call the ctx-checked peelers and decoders under
// context.Background. Their only error is cancellation, which that
// context never signals, so the runners drop it.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/recurrence"
	"repro/internal/rng"
	"repro/internal/stats"
)

// must unwraps a (value, error) pair from the recurrence package. The
// experiment runners are application code driven by hardcoded parameter
// tables, where an invalid Params is a programming error in the config,
// not an input to degrade on — so the error surfaces as a panic here, at
// the application layer, keeping the recurrence library itself
// panic-free.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// must2 is must for three-value returns like PredictRounds: it panics on
// a non-nil error and passes the first two results through.
func must2[A, B any](a A, b B, err error) (A, B) {
	if err != nil {
		panic(err)
	}
	return a, b
}

// Table1Config parameterizes the Table 1 sweep: average parallel peeling
// rounds and failure counts as n grows, for several edge densities.
type Table1Config struct {
	K, R   int
	Cs     []float64 // edge densities (paper: 0.70, 0.75, 0.80, 0.85)
	Ns     []int     // vertex counts (paper: 10000 ... 2560000, doubling)
	Trials int       // trials per (c, n) pair (paper: 1000)
	Seed   uint64
}

// DefaultTable1 returns the paper's full Table 1 configuration: n from
// 10000 to 2560000, 1000 trials per cell.
func DefaultTable1() Table1Config {
	return Table1Config{
		K: 2, R: 4,
		Cs:     []float64{0.70, 0.75, 0.80, 0.85},
		Ns:     []int{10000, 20000, 40000, 80000, 160000, 320000, 640000, 1280000, 2560000},
		Trials: 1000,
		Seed:   2014,
	}
}

// Table1Cell is one (n, c) aggregate.
type Table1Cell struct {
	C          float64
	Failed     int     // trials ending with a non-empty k-core
	MeanRounds float64 // mean productive rounds
}

// Table1Row is one n row across all densities.
type Table1Row struct {
	N     int
	Cells []Table1Cell
}

// Table1Result carries the rows plus growth-law fits (Theorems 1 and 3):
// below-threshold columns are fit against log log n, above-threshold
// columns against log n.
type Table1Result struct {
	Config Table1Config
	Rows   []Table1Row
}

// RunTable1 executes the sweep. Each (c, n, trial) triple gets its own
// deterministic RNG stream, so results are reproducible bit-for-bit.
func RunTable1(cfg Table1Config) *Table1Result {
	res := &Table1Result{Config: cfg}
	for _, n := range cfg.Ns {
		row := Table1Row{N: n}
		for ci, c := range cfg.Cs {
			m := int(c * float64(n))
			failed := 0
			rounds := stats.Trials(cfg.Trials, cfg.Seed^uint64(ci*1000003+n), func(trial int, gen *rng.RNG) float64 {
				g := hypergraph.Uniform(n, m, cfg.R, gen, parallel.Default())
				r, _ := core.ParallelCtx(context.Background(), g, cfg.K, core.Options{})
				if !r.Empty() {
					failed++
				}
				return float64(r.Rounds)
			})
			row.Cells = append(row.Cells, Table1Cell{
				C:          c,
				Failed:     failed,
				MeanRounds: stats.Summarize(rounds).Mean,
			})
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// GrowthFit returns the least-squares slope of mean rounds against
// f(n) for column ci, where f is log log n below the threshold and log n
// above (pass the appropriate flag). It quantifies the Theorem 1 vs
// Theorem 3 growth-law split.
func (t *Table1Result) GrowthFit(ci int, aboveThreshold bool) (slope float64) {
	var xs, ys []float64
	for _, row := range t.Rows {
		x := math.Log(math.Log(float64(row.N)))
		if aboveThreshold {
			x = math.Log(float64(row.N))
		}
		xs = append(xs, x)
		ys = append(ys, row.Cells[ci].MeanRounds)
	}
	slope, _ = stats.LinearFit(xs, ys)
	return slope
}

// Render writes the result in the paper's Table 1 layout.
func (t *Table1Result) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "n")
	for _, c := range t.Config.Cs {
		fmt.Fprintf(tw, "\tc=%.2f Failed\tRounds", c)
	}
	fmt.Fprintln(tw)
	for _, row := range t.Rows {
		fmt.Fprintf(tw, "%d", row.N)
		for _, cell := range row.Cells {
			fmt.Fprintf(tw, "\t%d\t%.3f", cell.Failed, cell.MeanRounds)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Table2Config parameterizes the recurrence-vs-simulation comparison:
// survivors after each round, predicted by Equation (3.1) and measured.
type Table2Config struct {
	K, R   int
	N      int
	Cs     []float64 // paper: 0.70 and 0.85
	Rounds int       // rows per density (paper: 20)
	Trials int       // paper: 1000
	Seed   uint64
}

// DefaultTable2 returns the paper's configuration (n = 1e6, 1000 trials).
func DefaultTable2() Table2Config {
	return Table2Config{K: 2, R: 4, N: 1000000, Cs: []float64{0.70, 0.85}, Rounds: 20, Trials: 1000, Seed: 2014}
}

// Table2Series is the per-density comparison.
type Table2Series struct {
	C          float64
	Prediction []float64 // λ_t · n
	Experiment []float64 // mean survivors after round t
}

// Table2Result carries one series per density.
type Table2Result struct {
	Config Table2Config
	Series []Table2Series
}

// RunTable2 executes the comparison.
func RunTable2(cfg Table2Config) *Table2Result {
	res := &Table2Result{Config: cfg}
	for ci, c := range cfg.Cs {
		p := recurrence.Params{K: cfg.K, R: cfg.R, C: c}
		trace := must(p.Trace(cfg.Rounds))
		series := Table2Series{C: c}
		for _, s := range trace {
			series.Prediction = append(series.Prediction, s.Lambda*float64(cfg.N))
		}
		sums := make([]float64, cfg.Rounds)
		m := int(c * float64(cfg.N))
		for trial := 0; trial < cfg.Trials; trial++ {
			gen := rng.NewStream(cfg.Seed^uint64(1000+ci), uint64(trial))
			g := hypergraph.Uniform(cfg.N, m, cfg.R, gen, parallel.Default())
			r, _ := core.ParallelCtx(context.Background(), g, cfg.K, core.Options{MaxRounds: cfg.Rounds})
			for t := 0; t < cfg.Rounds; t++ {
				if t < len(r.SurvivorHistory) {
					sums[t] += float64(r.SurvivorHistory[t])
				} else {
					sums[t] += float64(r.CoreVertices)
				}
			}
		}
		for t := 0; t < cfg.Rounds; t++ {
			series.Experiment = append(series.Experiment, sums[t]/float64(cfg.Trials))
		}
		res.Series = append(res.Series, series)
	}
	return res
}

// MaxRelativeError returns the largest |prediction − experiment| /
// max(experiment, floor) across rounds of series si, the figure of merit
// for "the recurrence describes the process remarkably well".
func (t *Table2Result) MaxRelativeError(si int, floor float64) float64 {
	s := t.Series[si]
	worst := 0.0
	for i := range s.Prediction {
		den := math.Max(s.Experiment[i], floor)
		if den <= 0 {
			continue
		}
		if rel := math.Abs(s.Prediction[i]-s.Experiment[i]) / den; rel > worst {
			worst = rel
		}
	}
	return worst
}

// Render writes the result in the paper's Table 2 layout.
func (t *Table2Result) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, s := range t.Series {
		fmt.Fprintf(tw, "c = %.2f\t\t\n", s.C)
		fmt.Fprintf(tw, "t\tPrediction\tExperiment\n")
		for i := range s.Prediction {
			fmt.Fprintf(tw, "%d\t%.5g\t%.5g\n", i+1, s.Prediction[i], s.Experiment[i])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
