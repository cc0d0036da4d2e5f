package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/recurrence"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Table5Config parameterizes the subtable-peeling subround sweep
// (Appendix B simulations).
type Table5Config struct {
	K, R   int
	Cs     []float64 // paper: 0.70 and 0.75
	Ns     []int     // paper: 10000 ... 2560000
	Trials int       // paper: 1000
	Seed   uint64
}

// DefaultTable5 returns the paper's configuration.
func DefaultTable5() Table5Config {
	return Table5Config{
		K: 2, R: 4,
		Cs:     []float64{0.70, 0.75},
		Ns:     []int{10000, 20000, 40000, 80000, 160000, 320000, 640000, 1280000, 2560000},
		Trials: 1000,
		Seed:   2014,
	}
}

// Table5Cell is one (n, c) aggregate.
type Table5Cell struct {
	C             float64
	Failed        int
	MeanSubrounds float64
}

// Table5Row is one n row.
type Table5Row struct {
	N     int
	Cells []Table5Cell
}

// Table5Result carries the subround sweep.
type Table5Result struct {
	Config Table5Config
	Rows   []Table5Row
}

// RunTable5 executes the sweep on partitioned hypergraphs with the
// subtable peeler.
func RunTable5(cfg Table5Config) *Table5Result {
	res := &Table5Result{Config: cfg}
	for _, n := range cfg.Ns {
		// Partitioned graphs need r | n.
		np := n - n%cfg.R
		row := Table5Row{N: n}
		for ci, c := range cfg.Cs {
			m := int(c * float64(np))
			failed := 0
			subrounds := stats.Trials(cfg.Trials, cfg.Seed^uint64(ci*2000003+n), func(trial int, gen *rng.RNG) float64 {
				g := hypergraph.Partitioned(np, m, cfg.R, gen, parallel.Default())
				r, _ := core.SubtablesCtx(context.Background(), g, cfg.K, core.Options{})
				if !r.Empty() {
					failed++
				}
				return float64(r.Subrounds)
			})
			row.Cells = append(row.Cells, Table5Cell{
				C:             c,
				Failed:        failed,
				MeanSubrounds: stats.Summarize(subrounds).Mean,
			})
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render writes the result in the paper's Table 5 layout.
func (t *Table5Result) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "n")
	for _, c := range t.Config.Cs {
		fmt.Fprintf(tw, "\tc=%.2f Failed\tSubrounds", c)
	}
	fmt.Fprintln(tw)
	for _, row := range t.Rows {
		fmt.Fprintf(tw, "%d", row.N)
		for _, cell := range row.Cells {
			fmt.Fprintf(tw, "\t%d\t%.3f", cell.Failed, cell.MeanSubrounds)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Table6Config parameterizes the subtable recurrence-vs-simulation
// comparison (λ′_{i,j} of Equation (B.1) vs measured survivors).
type Table6Config struct {
	K, R   int
	N      int
	C      float64
	Rounds int // full rounds (r subrounds each); paper shows 7
	Trials int
	Seed   uint64
}

// DefaultTable6 returns the paper's configuration (n = 1e6, c = 0.7).
func DefaultTable6() Table6Config {
	return Table6Config{K: 2, R: 4, N: 1000000, C: 0.70, Rounds: 7, Trials: 1000, Seed: 2014}
}

// Table6Row is one (i, j) subround comparison.
type Table6Row struct {
	Round      int
	Subtable   int
	Prediction float64 // λ′_{i,j} · n
	Experiment float64 // mean survivors after subround (i, j)
}

// Table6Result carries the per-subround comparison.
type Table6Result struct {
	Config Table6Config
	Rows   []Table6Row
}

// RunTable6 executes the comparison.
func RunTable6(cfg Table6Config) *Table6Result {
	res := &Table6Result{Config: cfg}
	np := cfg.N - cfg.N%cfg.R
	p := recurrence.Params{K: cfg.K, R: cfg.R, C: cfg.C}
	trace := must(p.SubtableTrace(cfg.Rounds))
	total := cfg.Rounds * cfg.R
	sums := make([]float64, total)
	m := int(cfg.C * float64(np))
	for trial := 0; trial < cfg.Trials; trial++ {
		gen := rng.NewStream(cfg.Seed^3000, uint64(trial))
		g := hypergraph.Partitioned(np, m, cfg.R, gen, parallel.Default())
		r, _ := core.SubtablesCtx(context.Background(), g, cfg.K, core.Options{MaxRounds: cfg.Rounds})
		for t := 0; t < total; t++ {
			if t < len(r.SurvivorHistory) {
				sums[t] += float64(r.SurvivorHistory[t])
			} else {
				sums[t] += float64(r.CoreVertices)
			}
		}
	}
	for t := 0; t < total; t++ {
		res.Rows = append(res.Rows, Table6Row{
			Round:      trace[t].Round,
			Subtable:   trace[t].Subtable,
			Prediction: trace[t].MixedFra * float64(np),
			Experiment: sums[t] / float64(cfg.Trials),
		})
	}
	return res
}

// Render writes the result in the paper's Table 6 layout.
func (t *Table6Result) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "i\tj\tPrediction\tExperiment\n")
	for _, row := range t.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%.5g\t%.5g\n", row.Round, row.Subtable, row.Prediction, row.Experiment)
	}
	tw.Flush()
}
