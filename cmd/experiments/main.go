// Command experiments regenerates the tables and the figure of the
// evaluation of "Parallel Peeling Algorithms" (SPAA 2014), plus the
// Theorem 5 gap sweeps, the model-validation chain and the design-choice
// ablations. Each section is one named run:
//
//	experiments [-full] [-trials N] [-seed S] [-workers W] [-out FILE] [section ...]
//
// With no section names every section runs, in the order of the section
// table below; run with an unknown name to list them. The defaults are a
// laptop preset that shrinks the paper's instance sizes and trial counts;
// -full runs the paper's sizes, which takes much longer. The process
// exits 1 if a parallel IBLT decode disagrees with the serial decode
// (section decode) and 2 on a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/chart"
	"repro/internal/experiments"
	"repro/internal/fib"
	"repro/internal/parallel"
	"repro/internal/threshold"
)

// options are the flags every section reads.
type options struct {
	full   bool   // the paper's sizes instead of the laptop preset
	trials int    // > 0 overrides a section's trial count
	seed   uint64 // base RNG seed
}

// preset applies the trial override and the seed to a section's config.
func (o options) preset(trials *int, seed *uint64) {
	if o.trials > 0 {
		*trials = o.trials
	}
	*seed = o.seed
}

// laptopNs is the n sweep of Tables 1 and 5 without -full: the paper's
// doubling sweep cut off at 640000.
var laptopNs = []int{10000, 20000, 40000, 80000, 160000, 320000, 640000}

// section is one named experiment. run writes its output to w and
// reports false when the experiment found a correctness fault.
type section struct {
	name, title string
	run         func(w io.Writer, o options) bool
}

var sections = []section{
	{"thresholds", "Section 2: thresholds c*(k,r) and round constants", runThresholds},
	{"table1", "Table 1: rounds vs n (r=4, k=2)", runTable1},
	{"table2", "Table 2: recurrence vs simulation (r=4, k=2, n=1e6)", runTable2},
	{"table3", "Table 3: IBLT serial vs parallel (r=3)", func(w io.Writer, o options) bool { return runIBLT(w, o, 3) }},
	{"table4", "Table 4: IBLT serial vs parallel (r=4)", func(w io.Writer, o options) bool { return runIBLT(w, o, 4) }},
	{"table5", "Table 5: subtable peeling subrounds (r=4, k=2)", runTable5},
	{"table6", "Table 6: subtable recurrence vs simulation (r=4, k=2, n=1e6, c=0.7)", runTable6},
	{"figure1", "Figure 1: beta trace near the threshold (k=2, r=4)", runFigure1},
	{"nu", "Theorem 5: rounds vs gap nu = c* - c (recurrence and graphs)", runNu},
	{"validation", "Model validation: tree MC vs recurrence vs graph (Section 3.1 chain)", runValidation},
	{"scan", "Parallel peeling: frontier vs full-scan (c=0.7, k=2, r=4)", runScan},
	{"decode", "IBLT decode: serial vs GPU-style full scan vs frontier extension", runDecode},
	{"cuckoo", "Cuckoo placement: peeling (threshold 0.818) vs random walk (threshold ~0.917), r=3", runCuckoo},
	{"xorsat", "Random 3-XORSAT: peel-only vs peel+Gauss solve rates", runXORSAT},
	{"ensembles", "Degree ensembles at equal density 1.0 (r=3, k=2)", runEnsembles},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run parses args, runs the named sections (all of them when none is
// named) and returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stdout)
	full := fs.Bool("full", false, "use the paper's full sizes (much slower)")
	trials := fs.Int("trials", 0, "override every section's trial count (0 = preset)")
	seed := fs.Uint64("seed", 2014, "base RNG seed")
	workers := fs.Int("workers", 0, "worker pool size for the parallel runs (0 = GOMAXPROCS)")
	out := fs.String("out", "", "also write the results to this file")
	fs.Usage = func() {
		fmt.Fprintln(stdout, "usage: experiments [flags] [section ...]")
		fs.PrintDefaults()
		printSections(stdout)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	todo := sections
	if fs.NArg() > 0 {
		todo = nil
		for _, name := range fs.Args() {
			s, ok := lookup(name)
			if !ok {
				fmt.Fprintf(stdout, "experiments: unknown section %q\n", name)
				printSections(stdout)
				return 2
			}
			todo = append(todo, s)
		}
	}

	w := stdout
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			fmt.Fprintln(stdout, err)
			return 1
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}
	if *workers > 0 {
		parallel.SetDefaultWorkers(*workers)
	}

	o := options{full: *full, trials: *trials, seed: *seed}
	fmt.Fprintf(w, "Parallel Peeling Algorithms (SPAA 2014) — experiment run\n")
	fmt.Fprintf(w, "GOMAXPROCS=%d, workers=%d, full=%v, seed=%d, date=%s\n\n",
		runtime.GOMAXPROCS(0), parallel.Default().Workers(), o.full, o.seed, time.Now().Format("2006-01-02"))
	code := 0
	for _, s := range todo {
		fmt.Fprintf(w, "== %s ==\n", s.title)
		start := time.Now()
		if !s.run(w, o) {
			code = 1
		}
		fmt.Fprintf(w, "(elapsed %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if f != nil {
		if err := f.Close(); err != nil {
			fmt.Fprintln(stdout, err)
			return 1
		}
	}
	return code
}

func lookup(name string) (section, bool) {
	for _, s := range sections {
		if s.name == name {
			return s, true
		}
	}
	return section{}, false
}

func printSections(w io.Writer) {
	fmt.Fprintln(w, "sections (default: all, in this order):")
	for _, s := range sections {
		fmt.Fprintf(w, "  %-11s %s\n", s.name, s.title)
	}
}

func runThresholds(w io.Writer, _ options) bool {
	ks := []int{2, 3, 4, 5}
	rs := []int{2, 3, 4, 5, 6}
	fmt.Fprintln(w, "k-core emptiness thresholds c*(k,r)  [Equation (2.1)]")
	experiments.RenderThresholdTable(w, experiments.ThresholdTable(ks, rs))

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Theorem 1 round constants 1/log((k-1)(r-1)) and Theorem 4 subround constants")
	fmt.Fprintf(w, "%-4s %-4s %-12s %-12s %-10s\n", "k", "r", "1/log((k-1)(r-1))", "subround const", "overhead")
	for _, k := range ks {
		for _, r := range rs {
			if r < 3 {
				continue
			}
			fmt.Fprintf(w, "%-4d %-4d %-17.4f %-14.4f %-10.4f\n",
				k, r,
				threshold.RoundLeadConstant(k, r),
				fib.SubroundLeadConstant(k, r),
				fib.SubroundOverheadFactor(r))
		}
	}
	return true
}

func runTable1(w io.Writer, o options) bool {
	cfg := experiments.DefaultTable1()
	if !o.full {
		cfg.Ns, cfg.Trials = laptopNs, 25
	}
	o.preset(&cfg.Trials, &cfg.Seed)
	fmt.Fprintf(w, "%d trials\n", cfg.Trials)
	res := experiments.RunTable1(cfg)
	res.Render(w)
	fmt.Fprintf(w, "# below-threshold log log n slope (c=%.2f): %.3f (Theorem 1 constant 1/log 3 = 0.910)\n",
		cfg.Cs[0], res.GrowthFit(0, false))
	fmt.Fprintf(w, "# above-threshold log n slope (c=%.2f): %.3f (Theorem 3: positive)\n",
		cfg.Cs[len(cfg.Cs)-1], res.GrowthFit(len(cfg.Cs)-1, true))
	return true
}

func runTable2(w io.Writer, o options) bool {
	cfg := experiments.DefaultTable2()
	if !o.full {
		cfg.Trials = 5
	}
	o.preset(&cfg.Trials, &cfg.Seed)
	fmt.Fprintf(w, "%d trials\n", cfg.Trials)
	experiments.RunTable2(cfg).Render(w)
	return true
}

func runIBLT(w io.Writer, o options, r int) bool {
	cfg := experiments.DefaultIBLT(r)
	if o.full {
		cfg.Cells = 1 << 24
	}
	o.preset(&cfg.Trials, &cfg.Seed)
	fmt.Fprintf(w, "%d cells, %d trials\n", cfg.Cells, cfg.Trials)
	experiments.RunIBLT(cfg).Render(w)
	return true
}

func runTable5(w io.Writer, o options) bool {
	cfg := experiments.DefaultTable5()
	if !o.full {
		cfg.Ns, cfg.Trials = laptopNs, 25
	}
	o.preset(&cfg.Trials, &cfg.Seed)
	fmt.Fprintf(w, "%d trials\n", cfg.Trials)
	experiments.RunTable5(cfg).Render(w)
	fmt.Fprintf(w, "# Theorem 4 subround constant r/(r log phi_{r-1} + log(k-1)) = %.3f; plain-round constant = 0.910\n",
		fib.SubroundLeadConstant(cfg.K, cfg.R))
	return true
}

func runTable6(w io.Writer, o options) bool {
	cfg := experiments.DefaultTable6()
	if !o.full {
		cfg.Trials = 5
	}
	o.preset(&cfg.Trials, &cfg.Seed)
	fmt.Fprintf(w, "%d trials\n", cfg.Trials)
	experiments.RunTable6(cfg).Render(w)
	return true
}

func runFigure1(w io.Writer, _ options) bool {
	res := experiments.RunFigure1(experiments.DefaultFigure1())
	series := make([]chart.Series, len(res.Series))
	for i, s := range res.Series {
		series[i] = chart.Series{Name: fmt.Sprintf("c=%.4g", s.C), Values: s.Betas}
	}
	fmt.Fprintf(w, "Figure 1: beta_i near c* = %.5f (x* = %.4f)\n\n", res.CStar, res.XStar)
	chart.Render(w, chart.Config{Width: 76, Height: 22, YLabel: "beta_i", XLabel: "round i"}, series...)
	fmt.Fprintf(w, "# plateau lengths (|beta - x*| < 0.1): %d rounds at c=%.4g, %d rounds at c=%.4g\n",
		res.PlateauLength(0, 0.1), res.Series[0].C, res.PlateauLength(1, 0.1), res.Series[1].C)
	return true
}

func runNu(w io.Writer, o options) bool {
	fmt.Fprintln(w, "idealized recurrence:")
	experiments.RunNuSweep(experiments.DefaultNuSweep()).Render(w)
	cfg := experiments.DefaultEmpiricalNu()
	if !o.full {
		cfg.N, cfg.Trials = 1<<19, 3
	}
	o.preset(&cfg.Trials, &cfg.Seed)
	fmt.Fprintf(w, "\nmeasured on graphs, %d trials:\n", cfg.Trials)
	experiments.RunEmpiricalNu(cfg).Render(w)
	return true
}

func runValidation(w io.Writer, o options) bool {
	cfg := experiments.DefaultModelValidation()
	if !o.full {
		cfg.N, cfg.TreeTrials = 1<<19, 20000
	}
	cfg.Seed = o.seed
	experiments.RenderModelValidation(w, experiments.RunModelValidation(cfg))
	return true
}

func runScan(w io.Writer, o options) bool {
	cfg := experiments.DefaultScanAblation()
	o.preset(&cfg.Trials, &cfg.Seed)
	experiments.RenderScanAblation(w, experiments.RunScanAblation(cfg))
	return true
}

// runDecode is the one section that can fail: a parallel decode that
// disagrees with the serial decode prints MISMATCH lines and fails the
// run once every requested section has printed.
func runDecode(w io.Writer, o options) bool {
	cfg := experiments.DefaultDecoderAblation()
	o.preset(&cfg.Trials, &cfg.Seed)
	res := experiments.RunDecoderAblation(cfg)
	res.Render(w)
	return len(res.Mismatches) == 0
}

func runCuckoo(w io.Writer, o options) bool {
	cfg := experiments.DefaultCuckooSweep()
	o.preset(&cfg.Trials, &cfg.Seed)
	experiments.RenderCuckooSweep(w, experiments.RunCuckooSweep(cfg))
	return true
}

func runXORSAT(w io.Writer, o options) bool {
	cfg := experiments.DefaultXORSATSweep()
	o.preset(&cfg.Trials, &cfg.Seed)
	experiments.RenderXORSATSweep(w, experiments.RunXORSATSweep(cfg))
	return true
}

func runEnsembles(w io.Writer, o options) bool {
	experiments.RenderEnsembleComparison(w, experiments.RunEnsembleComparison(100000, o.seed))
	return true
}
