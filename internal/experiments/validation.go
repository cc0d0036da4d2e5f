package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"repro/internal/branching"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/recurrence"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/threshold"
)

// EmpiricalNuConfig parameterizes the *measured* Theorem 5 check: average
// parallel-peeling rounds on real G^r_{n,cn} instances as the density
// approaches the threshold from below, complementing the idealized
// recurrence sweep (RunNuSweep).
type EmpiricalNuConfig struct {
	K, R   int
	N      int
	Nus    []float64
	Trials int
	Seed   uint64
}

// DefaultEmpiricalNu returns a sweep over one decade of gaps. The floor
// on ν keeps finite-size effects (ν ≪ n^{-1/2} washes out the plateau)
// from dominating at the default n.
func DefaultEmpiricalNu() EmpiricalNuConfig {
	return EmpiricalNuConfig{
		K: 2, R: 4, N: 1 << 20,
		Nus:    []float64{0.04, 0.02, 0.01, 0.005},
		Trials: 5,
		Seed:   2014,
	}
}

// EmpiricalNuRow is one gap sample.
type EmpiricalNuRow struct {
	Nu         float64
	C          float64
	MeanRounds float64
	Failed     int
	Predicted  int // idealized recurrence rounds at the same n
}

// EmpiricalNuResult carries the sweep.
type EmpiricalNuResult struct {
	Config EmpiricalNuConfig
	CStar  float64
	Rows   []EmpiricalNuRow
}

// RunEmpiricalNu executes the measured sweep.
func RunEmpiricalNu(cfg EmpiricalNuConfig) *EmpiricalNuResult {
	cstar, _ := threshold.Threshold(cfg.K, cfg.R)
	res := &EmpiricalNuResult{Config: cfg, CStar: cstar}
	for ni, nu := range cfg.Nus {
		c := cstar - nu
		m := int(c * float64(cfg.N))
		failed := 0
		rounds := stats.Trials(cfg.Trials, cfg.Seed^uint64(ni*7919), func(trial int, gen *rng.RNG) float64 {
			g := hypergraph.Uniform(cfg.N, m, cfg.R, gen, parallel.Default())
			r, _ := core.ParallelCtx(context.Background(), g, cfg.K, core.Options{})
			if !r.Empty() {
				failed++
			}
			return float64(r.Rounds)
		})
		pred, _ := must2(recurrence.Params{K: cfg.K, R: cfg.R, C: c}.PredictRounds(float64(cfg.N), 1<<20))
		res.Rows = append(res.Rows, EmpiricalNuRow{
			Nu: nu, C: c,
			MeanRounds: stats.Summarize(rounds).Mean,
			Failed:     failed,
			Predicted:  pred,
		})
	}
	return res
}

// Render writes the measured sweep.
func (r *EmpiricalNuResult) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "# c* = %.5f, n = %d\n", r.CStar, r.Config.N)
	fmt.Fprintf(tw, "nu\tc\tmeasured rounds\trecurrence rounds\tfailed\n")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%.4g\t%.6f\t%.2f\t%d\t%d\n",
			row.Nu, row.C, row.MeanRounds, row.Predicted, row.Failed)
	}
	tw.Flush()
}

// ModelValidationConfig parameterizes the three-way consistency check
// between (a) the Monte Carlo branching-tree model of Section 3.1,
// (b) the closed-form recurrence, and (c) hypergraph simulation — the
// full modeling chain the paper's proofs formalize.
type ModelValidationConfig struct {
	K, R       int
	C          float64
	Rounds     int
	TreeTrials int
	N          int // hypergraph size
	Seed       uint64
}

// DefaultModelValidation returns a below-threshold configuration.
func DefaultModelValidation() ModelValidationConfig {
	return ModelValidationConfig{K: 2, R: 4, C: 0.7, Rounds: 6, TreeTrials: 30000, N: 1 << 20, Seed: 2014}
}

// ModelValidationRow is one round's three estimates of λ_t.
type ModelValidationRow struct {
	Round      int
	Tree       float64 // Monte Carlo branching process
	Recurrence float64 // closed form
	Graph      float64 // survivor fraction on a G^r_{n,cn} instance
}

// RunModelValidation computes the comparison.
func RunModelValidation(cfg ModelValidationConfig) []ModelValidationRow {
	p := branching.Params{K: cfg.K, R: cfg.R, C: cfg.C}
	rec := recurrence.Params{K: cfg.K, R: cfg.R, C: cfg.C}
	trace := must(rec.Trace(cfg.Rounds))
	g := hypergraph.Uniform(cfg.N, int(cfg.C*float64(cfg.N)), cfg.R, rng.New(cfg.Seed), parallel.Default())
	sim, _ := core.ParallelCtx(context.Background(), g, cfg.K, core.Options{MaxRounds: cfg.Rounds})

	rows := make([]ModelValidationRow, cfg.Rounds)
	for t := 1; t <= cfg.Rounds; t++ {
		graph := float64(sim.CoreVertices)
		if t-1 < len(sim.SurvivorHistory) {
			graph = float64(sim.SurvivorHistory[t-1])
		}
		rows[t-1] = ModelValidationRow{
			Round:      t,
			Tree:       p.SurvivalProbability(t, cfg.TreeTrials, cfg.Seed^uint64(t)),
			Recurrence: trace[t-1].Lambda,
			Graph:      graph / float64(cfg.N),
		}
	}
	return rows
}

// MaxPairwiseGap returns the largest |a − b| across the three estimates
// over all rounds — the headline validation number.
func MaxPairwiseGap(rows []ModelValidationRow) float64 {
	worst := 0.0
	for _, r := range rows {
		for _, d := range []float64{
			math.Abs(r.Tree - r.Recurrence),
			math.Abs(r.Tree - r.Graph),
			math.Abs(r.Recurrence - r.Graph),
		} {
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// RenderModelValidation writes the three-way table.
func RenderModelValidation(w io.Writer, rows []ModelValidationRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "t\ttree MC\trecurrence\tgraph sim\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.4f\n", r.Round, r.Tree, r.Recurrence, r.Graph)
	}
	fmt.Fprintf(tw, "# max pairwise gap: %.4f\n", MaxPairwiseGap(rows))
	tw.Flush()
}
