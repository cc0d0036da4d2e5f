package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/recurrence"
	"repro/internal/threshold"
)

// Peel workload: 2-cores of 4-uniform hypergraphs on peelN vertices,
// one below the threshold c*(2,4) ≈ 0.772 and one above it. A third of
// the jobs, drawn from the seed, peel the graph above the threshold.
// That peel stalls early at a large core, so those jobs are the short
// ones, and the median and p95 both fall among the below-threshold
// jobs rather than in the gap between the two kinds.
const (
	peelN     = 1 << 18
	peelR     = 4
	peelK     = 2
	peelBelow = 0.70
	peelAbove = 0.85
	// peelCallers is 1: with two callers sharing the runtime's two
	// workers, a job's latency depends on how its rounds overlap the
	// other job's, and the median and rate moved by up to a fifth
	// between identical runs.
	peelCallers = 1
)

// peelGraph is a generated instance and its sequential oracle.
type peelGraph struct {
	name   string
	c      float64
	below  bool // c lies below the threshold, so the core must be empty
	g      *hypergraph.Hypergraph
	oracle *core.SeqResult
	span   atomic.Uint64 // a traced request on this graph, parent of its replays
}

// genHypergraph draws round(c·n) edges of r distinct uniform vertices.
func genHypergraph(seed uint64, n, r int, c float64) *hypergraph.Hypergraph {
	m := int(math.Round(c * float64(n)))
	gen := &rng{s: seed}
	edges := make([]uint32, 0, m*r)
	for e := 0; e < m; e++ {
		start := len(edges)
	draw:
		for len(edges) < start+r {
			v := uint32(gen.intn(n))
			for _, u := range edges[start:] {
				if u == v {
					continue draw
				}
			}
			edges = append(edges, v)
		}
	}
	return hypergraph.FromEdges(n, r, edges, 0)
}

// checkPeel compares a peel's core against the oracle's.
func checkPeel(pg *peelGraph, got *repro.PeelResult) error {
	want := pg.oracle
	if got.CoreVertices != want.CoreVertices || got.CoreEdges != want.CoreEdges ||
		!bytes.Equal(got.VertexAlive, want.VertexAlive) || !bytes.Equal(got.EdgeAlive, want.EdgeAlive) {
		return fmt.Errorf("%s graph: core %d vertices / %d edges, oracle %d / %d (or membership differs)",
			pg.name, got.CoreVertices, got.CoreEdges, want.CoreVertices, want.CoreEdges)
	}
	if pg.below && !got.Empty() {
		return fmt.Errorf("%s graph: non-empty core below the threshold", pg.name)
	}
	return nil
}

func runPeel(cfg config) (*result, error) {
	res := newResult()
	graphs := []*peelGraph{
		{name: "below", c: peelBelow},
		{name: "above", c: peelAbove},
	}
	var bits []float64
	cstar, _ := threshold.Threshold(peelK, peelR)
	for i, pg := range graphs {
		pg.below = pg.c < cstar
		pg.g = genHypergraph(mix(cfg.seed^0x9ee1)+uint64(i)<<40, peelN, peelR, pg.c)
		pg.oracle = core.Sequential(pg.g, peelK)
		g := pg.g
		bits = append(bits, float64(4*(len(g.Edges)+len(g.Offsets)+len(g.Incidence)))*8/float64(g.M))
	}
	res.params["n"] = peelN
	res.params["r"] = peelR
	res.params["k"] = peelK
	res.params["c"] = []float64{peelBelow, peelAbove}
	res.params["callers"] = peelCallers
	res.values["space_bits_per_item"] = mean(bits)

	ctx := context.Background()
	var times []float64
	var rt *repro.Runtime
	for i := 0; i < setupRepeats; i++ {
		if rt != nil {
			shutdownRuntime(res, rt)
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		t0 := time.Now()
		rt = repro.NewRuntime(repro.RuntimeOptions{Policy: defaultPolicy})
		r, err := rt.Peel(ctx, graphs[0].g, peelK, repro.PeelOptions{})
		if err != nil {
			return nil, fmt.Errorf("setup: first peel: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if err := checkPeel(graphs[0], r); err != nil {
			res.mismatch("setup: %v", err)
		}
	}
	res.values["setup_s"] = median(times)

	pick := mix(cfg.seed ^ 0x91c4)
	phase := func(seconds float64, tr *tracer) loopStats {
		return closedLoop(peelCallers, seconds, func(_, j int) (time.Duration, outcome) {
			pg := graphs[0]
			if mix(pick+uint64(j))%3 == 0 {
				pg = graphs[1]
			}
			id := tr.newID()
			t0 := time.Now()
			r, err := rt.Peel(ctx, pg.g, peelK, repro.PeelOptions{})
			t1 := time.Now()
			tr.record(id, 0, uint64(j+1), "runtime.Peel."+pg.name, t0, t1)
			pg.span.CompareAndSwap(0, id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: peel %d: %v\n", j, err)
				return t1.Sub(t0), callFailed
			}
			if err := checkPeel(pg, r); err != nil {
				res.mismatch("peel %d: %v", j, err)
				return t1.Sub(t0), callWrong
			}
			return t1.Sub(t0), callOK
		})
	}

	untraced, tr := measureLoop(cfg, res, rt, nil, phase)
	res.values["runtime.jobs_panicked"] = float64(rt.Stats().JobsPanicked)
	shutdownRuntime(res, rt)
	if err := checkSamples(len(untraced.lat), cfg); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := replayPeel(res, tr, graphs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// shutdownRuntime drains rt and checks that no job panicked.
func shutdownRuntime(res *result, rt *repro.Runtime) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		res.mismatch("runtime shutdown: %v", err)
	}
	if n := rt.Stats().JobsPanicked; n != 0 {
		res.mismatch("runtime: %d jobs panicked", n)
	}
}

// replayPeel times Runtime.Peel on each graph on private runtimes of
// each replayWorkers size, and records round counts beside the model.
func replayPeel(res *result, tr *tracer, graphs []*peelGraph) error {
	ctx := context.Background()
	for _, w := range replayWorkers {
		rt := repro.NewRuntime(repro.RuntimeOptions{Workers: w})
		sfx := fmt.Sprintf(".w%d", w)
		for rep := 0; rep < replaySamples; rep++ {
			for _, pg := range graphs {
				var r *repro.PeelResult
				if err := tr.run(pg.span.Load(), 0, "core.peel."+pg.name+sfx, func() error {
					var err error
					r, err = rt.Peel(ctx, pg.g, peelK, repro.PeelOptions{})
					return err
				}); err != nil {
					return err
				}
				if err := checkPeel(pg, r); err != nil {
					res.mismatch("replay at %d workers: %v", w, err)
				}
				res.values["core.peel_rounds."+pg.name] = float64(r.Rounds)
				if pg.name == "above" {
					res.values["core.core_frac.above"] = float64(r.CoreVertices) / float64(pg.g.N)
				}
			}
		}
		shutdownRuntime(res, rt)
	}
	res.spans = tr.finish()
	for _, w := range replayWorkers {
		sfx := fmt.Sprintf(".w%d", w)
		for _, pg := range graphs {
			res.values["core.peel_ms."+pg.name+sfx] = median(byName(res.spans, "core.peel."+pg.name+sfx))
		}
	}
	rounds, _, err := recurrence.Params{K: peelK, R: peelR, C: peelBelow}.PredictRounds(peelN, 10000)
	if err != nil {
		return err
	}
	res.values["core.peel_rounds_model.below"] = float64(rounds)
	res.values["core.core_frac_model.above"] = threshold.CoreFraction(peelK, peelR, peelAbove)
	return nil
}
