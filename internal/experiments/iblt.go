package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/iblt"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// IBLTConfig parameterizes the Tables 3-4 reproduction: serial vs
// parallel IBLT insert and recovery times at loads straddling the
// recovery threshold. The paper uses 2^24 cells on a Tesla C2070; the
// default here is 2^21 (the paper notes shapes are stable beyond ~2^19),
// scalable via the Cells field.
type IBLTConfig struct {
	R      int       // hash functions / subtables (paper: 3 and 4)
	Cells  int       // total cells (paper: 16.8M = 2^24)
	Loads  []float64 // keys = load × cells (paper: 0.75 and 0.83)
	Trials int       // timing repetitions (paper: 10)
	Seed   uint64
}

// DefaultIBLT returns a laptop-scaled Tables 3-4 configuration for the
// given arity.
func DefaultIBLT(r int) IBLTConfig {
	return IBLTConfig{R: r, Cells: 1 << 21, Loads: []float64{0.75, 0.83}, Trials: 10, Seed: 2014}
}

// IBLTRow is one load row of Table 3/4.
type IBLTRow struct {
	Load             float64
	Cells            int
	Keys             int
	PctRecovered     float64       // fraction of keys recovered (parallel)
	ParRecoveryTime  time.Duration // mean
	SerRecoveryTime  time.Duration
	ParInsertTime    time.Duration
	SerInsertTime    time.Duration
	RecoveryRounds   int // rounds used by the final parallel recovery
	RecoverySpeedup  float64
	InsertionSpeedup float64
}

// IBLTResult carries the timing table.
type IBLTResult struct {
	Config IBLTConfig
	Rows   []IBLTRow
}

// RunIBLT executes the benchmark. Serial timings use Insert/Decode;
// parallel timings use InsertAllWithPool/DecodeParallelCtx on the default
// pool. All timings are means
// over cfg.Trials runs on fresh tables with identical key sets.
func RunIBLT(cfg IBLTConfig) *IBLTResult {
	res := &IBLTResult{Config: cfg}
	gen := rng.New(cfg.Seed)
	for _, load := range cfg.Loads {
		nKeys := int(load * float64(cfg.Cells))
		keys := make([]uint64, nKeys)
		for i := range keys {
			for keys[i] == 0 {
				keys[i] = gen.Uint64()
			}
		}
		row := IBLTRow{Load: load, Cells: cfg.Cells, Keys: nKeys}
		var parIns, serIns, parRec, serRec time.Duration
		var recovered int
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := cfg.Seed + uint64(trial)

			tbl := iblt.New(cfg.Cells, cfg.R, seed)
			start := time.Now()
			tbl.InsertAllWithPool(keys, parallel.Default())
			parIns += time.Since(start)
			start = time.Now()
			pres, _ := tbl.DecodeParallelCtx(context.Background(), parallel.Default())
			parRec += time.Since(start)
			recovered = len(pres.Added)
			row.RecoveryRounds = pres.Rounds

			tbl = iblt.New(cfg.Cells, cfg.R, seed)
			start = time.Now()
			for _, k := range keys {
				tbl.Insert(k)
			}
			serIns += time.Since(start)
			start = time.Now()
			tbl.Decode()
			serRec += time.Since(start)
		}
		n := time.Duration(cfg.Trials)
		row.ParInsertTime = parIns / n
		row.SerInsertTime = serIns / n
		row.ParRecoveryTime = parRec / n
		row.SerRecoveryTime = serRec / n
		row.PctRecovered = float64(recovered) / float64(nKeys)
		if row.ParRecoveryTime > 0 {
			row.RecoverySpeedup = float64(row.SerRecoveryTime) / float64(row.ParRecoveryTime)
		}
		if row.ParInsertTime > 0 {
			row.InsertionSpeedup = float64(row.SerInsertTime) / float64(row.ParInsertTime)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render writes the result in the paper's Table 3/4 layout (with speedup
// columns replacing the absolute-hardware comparison).
func (t *IBLTResult) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Load\tCells\t%%Recovered\tPar Recovery\tSer Recovery\tPar Insert\tSer Insert\tRec Speedup\tIns Speedup\n")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%.2f\t%d\t%.1f%%\t%v\t%v\t%v\t%v\t%.1fx\t%.1fx\n",
			r.Load, r.Cells, 100*r.PctRecovered,
			r.ParRecoveryTime.Round(time.Microsecond), r.SerRecoveryTime.Round(time.Microsecond),
			r.ParInsertTime.Round(time.Microsecond), r.SerInsertTime.Round(time.Microsecond),
			r.RecoverySpeedup, r.InsertionSpeedup)
	}
	tw.Flush()
}
