package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/cuckoo"
	"repro/internal/hypergraph"
	"repro/internal/iblt"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/xorsat"
)

// ScanAblationConfig parameterizes the frontier-vs-full-scan ablation:
// the same parallel peeling process implemented with work-efficient
// frontier tracking versus the GPU's rescan-everything strategy.
type ScanAblationConfig struct {
	K, R   int
	C      float64
	Ns     []int
	Trials int
	Seed   uint64
}

// DefaultScanAblation returns a below-threshold timing sweep.
func DefaultScanAblation() ScanAblationConfig {
	return ScanAblationConfig{K: 2, R: 4, C: 0.7, Ns: []int{1 << 17, 1 << 19, 1 << 21}, Trials: 3, Seed: 2014}
}

// ScanAblationRow is one instance size's timing pair.
type ScanAblationRow struct {
	N        int
	Frontier time.Duration
	FullScan time.Duration
	Rounds   int
}

// RunScanAblation executes the sweep; both policies peel identical graphs.
func RunScanAblation(cfg ScanAblationConfig) []ScanAblationRow {
	var rows []ScanAblationRow
	for _, n := range cfg.Ns {
		g := hypergraph.Uniform(n, int(cfg.C*float64(n)), cfg.R, rng.New(cfg.Seed^uint64(n)), parallel.Default())
		row := ScanAblationRow{N: n}
		for trial := 0; trial < cfg.Trials; trial++ {
			start := time.Now()
			res, _ := core.ParallelCtx(context.Background(), g, cfg.K, core.Options{Scan: core.Frontier})
			row.Frontier += time.Since(start)
			row.Rounds = res.Rounds
			start = time.Now()
			core.ParallelCtx(context.Background(), g, cfg.K, core.Options{Scan: core.FullScan})
			row.FullScan += time.Since(start)
		}
		row.Frontier /= time.Duration(cfg.Trials)
		row.FullScan /= time.Duration(cfg.Trials)
		rows = append(rows, row)
	}
	return rows
}

// RenderScanAblation writes the timing table.
func RenderScanAblation(w io.Writer, rows []ScanAblationRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "n\trounds\tfrontier\tfull-scan\tfull/frontier\n")
	for _, r := range rows {
		ratio := float64(r.FullScan) / float64(r.Frontier)
		fmt.Fprintf(tw, "%d\t%d\t%v\t%v\t%.2fx\n",
			r.N, r.Rounds, r.Frontier.Round(time.Microsecond), r.FullScan.Round(time.Microsecond), ratio)
	}
	tw.Flush()
}

// CuckooSweepConfig parameterizes the placement-threshold ablation:
// peeling-based placement works below c*(2,r) ≈ 0.818 (r = 3) while
// random-walk insertion pushes to the orientability threshold ≈ 0.917 —
// the price of peeling's speed and parallelism.
type CuckooSweepConfig struct {
	R        int
	N        int
	Loads    []float64
	Trials   int
	MaxKicks int
	Seed     uint64
}

// DefaultCuckooSweep returns loads straddling both thresholds for r = 3.
func DefaultCuckooSweep() CuckooSweepConfig {
	return CuckooSweepConfig{
		R: 3, N: 30000,
		Loads:    []float64{0.75, 0.80, 0.84, 0.88, 0.91, 0.94},
		Trials:   10,
		MaxKicks: 2000,
		Seed:     2014,
	}
}

// CuckooSweepRow is one load's success rates.
type CuckooSweepRow struct {
	Load        float64
	PeelOK      int // trials where peeling placed everything
	RandomOK    int // trials where random walk placed everything
	Trials      int
	PeelSuccess float64
	WalkSuccess float64
}

// RunCuckooSweep executes the sweep.
func RunCuckooSweep(cfg CuckooSweepConfig) []CuckooSweepRow {
	n := cfg.N - cfg.N%cfg.R
	var rows []CuckooSweepRow
	for li, load := range cfg.Loads {
		row := CuckooSweepRow{Load: load, Trials: cfg.Trials}
		m := int(load * float64(n))
		for trial := 0; trial < cfg.Trials; trial++ {
			gen := rng.NewStream(cfg.Seed^uint64(li*101), uint64(trial))
			g := hypergraph.Partitioned(n, m, cfg.R, gen, parallel.Default())
			if _, ok := cuckoo.PlaceByPeeling(g); ok {
				row.PeelOK++
			}
			if _, ok := cuckoo.PlaceByRandomWalk(g, cfg.MaxKicks, gen); ok {
				row.RandomOK++
			}
		}
		row.PeelSuccess = float64(row.PeelOK) / float64(cfg.Trials)
		row.WalkSuccess = float64(row.RandomOK) / float64(cfg.Trials)
		rows = append(rows, row)
	}
	return rows
}

// RenderCuckooSweep writes the success-rate table.
func RenderCuckooSweep(w io.Writer, rows []CuckooSweepRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "load\tpeel success\trandom-walk success\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f\t%.2f\t%.2f\n", r.Load, r.PeelSuccess, r.WalkSuccess)
	}
	tw.Flush()
}

// XORSATSweepConfig parameterizes the solver-regime ablation around the
// two thresholds of random 3-XORSAT: peel-only solvability ends at
// c*(2,3) ≈ 0.818 while satisfiability extends to ≈ 0.917.
type XORSATSweepConfig struct {
	R      int
	N      int
	Cs     []float64
	Trials int
	Seed   uint64
}

// DefaultXORSATSweep returns densities straddling both thresholds.
func DefaultXORSATSweep() XORSATSweepConfig {
	return XORSATSweepConfig{
		R: 3, N: 20000,
		Cs:     []float64{0.70, 0.78, 0.82, 0.86, 0.90, 0.94, 1.00},
		Trials: 5,
		Seed:   2014,
	}
}

// XORSATSweepRow is one density's aggregate.
type XORSATSweepRow struct {
	C            float64
	PeelOnlyRate float64 // fraction of trials with empty 2-core
	SatRate      float64 // fraction solvable (peel + Gauss)
	MeanCoreEqs  float64 // mean 2-core size (equations)
}

// RunXORSATSweep executes the sweep on random-RHS instances.
func RunXORSATSweep(cfg XORSATSweepConfig) []XORSATSweepRow {
	var rows []XORSATSweepRow
	for ci, c := range cfg.Cs {
		row := XORSATSweepRow{C: c}
		m := int(c * float64(cfg.N))
		for trial := 0; trial < cfg.Trials; trial++ {
			gen := rng.NewStream(cfg.Seed^uint64(ci*307), uint64(trial))
			in := xorsat.Random(cfg.N, m, cfg.R, gen)
			_, stats, err := in.Solve()
			if stats.CoreEquations == 0 {
				row.PeelOnlyRate++
			}
			if err == nil {
				row.SatRate++
			}
			row.MeanCoreEqs += float64(stats.CoreEquations)
		}
		row.PeelOnlyRate /= float64(cfg.Trials)
		row.SatRate /= float64(cfg.Trials)
		row.MeanCoreEqs /= float64(cfg.Trials)
		rows = append(rows, row)
	}
	return rows
}

// RenderXORSATSweep writes the regime table.
func RenderXORSATSweep(w io.Writer, rows []XORSATSweepRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "c\tpeel-only rate\tSAT rate\tmean core eqs\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f\t%.2f\t%.2f\t%.0f\n", r.C, r.PeelOnlyRate, r.SatRate, r.MeanCoreEqs)
	}
	tw.Flush()
}

// EnsembleRow compares peeling outcomes across degree ensembles at equal
// edge density — the irregular-degree contrast from the LDPC literature:
// Poisson tails seed the peeling avalanche, regular ensembles with
// degree >= k never peel, and bimodal designs concentrate the core on
// heavy vertices.
type EnsembleRow struct {
	Name         string
	Density      float64
	Rounds       int
	CoreFraction float64
}

// RunEnsembleComparison peels three r=3 ensembles of equal mean degree 3
// (density 1.0): Poisson, 3-regular, and a 1/5 bimodal mix.
func RunEnsembleComparison(n int, seed uint64) []EnsembleRow {
	gen := rng.New(seed)
	rows := make([]EnsembleRow, 0, 3)

	run := func(name string, g *hypergraph.Hypergraph) {
		res, _ := core.ParallelCtx(context.Background(), g, 2, core.Options{})
		rows = append(rows, EnsembleRow{
			Name:         name,
			Density:      g.EdgeDensity(),
			Rounds:       res.Rounds,
			CoreFraction: float64(res.CoreVertices) / float64(g.N),
		})
	}
	run("poisson(3)", hypergraph.ConfigurationModel(hypergraph.PoissonDegrees(n, 3, gen), 3, gen, parallel.Default()))
	run("3-regular", hypergraph.ConfigurationModel(hypergraph.RegularDegrees(n, 3), 3, gen, parallel.Default()))
	bimodal := make([]int32, n)
	for i := range bimodal {
		if i%2 == 0 {
			bimodal[i] = 1
		} else {
			bimodal[i] = 5
		}
	}
	run("bimodal 1/5", hypergraph.ConfigurationModel(bimodal, 3, gen, parallel.Default()))
	return rows
}

// RenderEnsembleComparison writes the ensemble table.
func RenderEnsembleComparison(w io.Writer, rows []EnsembleRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "ensemble\tdensity\trounds\tcore fraction\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%d\t%.3f\n", r.Name, r.Density, r.Rounds, r.CoreFraction)
	}
	tw.Flush()
}

// DecoderAblationConfig parameterizes the three-way IBLT decode timing:
// serial queue, full-scan parallel (the paper's GPU algorithm), and
// frontier parallel (this repo's work-efficient extension).
type DecoderAblationConfig struct {
	R      int
	Cells  int
	Load   float64
	Trials int
	Seed   uint64
}

// DefaultDecoderAblation returns a below-threshold configuration.
func DefaultDecoderAblation() DecoderAblationConfig {
	return DecoderAblationConfig{R: 3, Cells: 1 << 19, Load: 0.75, Trials: 3, Seed: 2014}
}

// DecoderAblationResult carries the three mean decode times, and every
// trial in which a parallel decoder's output differed from the serial
// decode's: the recovered sets or completeness.
type DecoderAblationResult struct {
	Config     DecoderAblationConfig
	Serial     time.Duration
	FullScan   time.Duration
	Frontier   time.Duration
	Mismatches []string
}

// RunDecoderAblation executes the timing comparison on identical tables
// on the default pool, and checks both parallel modes against the
// serial decode on every trial.
func RunDecoderAblation(cfg DecoderAblationConfig) *DecoderAblationResult {
	gen := rng.New(cfg.Seed)
	keys := make([]uint64, int(cfg.Load*float64(cfg.Cells)))
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = gen.Uint64()
		}
	}
	pool := parallel.Default()
	master := iblt.New(cfg.Cells, cfg.R, cfg.Seed)
	master.InsertAllWithPool(keys, pool)
	res := &DecoderAblationResult{Config: cfg}
	for trial := 0; trial < cfg.Trials; trial++ {
		t := master.Clone()
		start := time.Now()
		added, removed, ok := t.Decode()
		res.Serial += time.Since(start)
		slices.Sort(added)
		slices.Sort(removed)

		for _, mode := range []struct {
			name   string
			decode func(*iblt.Table, context.Context, *parallel.Pool) (*iblt.ParallelResult, error)
			total  *time.Duration
		}{
			{"full scan", (*iblt.Table).DecodeParallelCtx, &res.FullScan},
			{"frontier", (*iblt.Table).DecodeParallelFrontierCtx, &res.Frontier},
		} {
			t := master.Clone()
			start := time.Now()
			pr, _ := mode.decode(t, context.Background(), pool)
			*mode.total += time.Since(start)
			slices.Sort(pr.Added)
			slices.Sort(pr.Removed)
			if pr.Complete != ok || !slices.Equal(pr.Added, added) || !slices.Equal(pr.Removed, removed) {
				res.Mismatches = append(res.Mismatches, fmt.Sprintf(
					"trial %d, %s: complete=%v added=%d removed=%d; serial complete=%v added=%d removed=%d",
					trial, mode.name, pr.Complete, len(pr.Added), len(pr.Removed), ok, len(added), len(removed)))
			}
		}
	}
	n := time.Duration(cfg.Trials)
	res.Serial /= n
	res.FullScan /= n
	res.Frontier /= n
	return res
}

// Render writes the decode timing comparison.
func (r *DecoderAblationResult) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "decoder\tmean time\tvs serial\n")
	base := float64(r.Serial)
	fmt.Fprintf(tw, "serial queue\t%v\t1.00x\n", r.Serial.Round(time.Microsecond))
	fmt.Fprintf(tw, "parallel full-scan (paper GPU)\t%v\t%.2fx\n",
		r.FullScan.Round(time.Microsecond), base/float64(r.FullScan))
	fmt.Fprintf(tw, "parallel frontier (extension)\t%v\t%.2fx\n",
		r.Frontier.Round(time.Microsecond), base/float64(r.Frontier))
	tw.Flush()
	for _, m := range r.Mismatches {
		fmt.Fprintf(w, "MISMATCH vs serial decode: %s\n", m)
	}
}
