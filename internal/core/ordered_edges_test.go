package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// checkEdgesMatchCSR runs the flat-edge kernel and the CSR ordered peel
// on g at k = 2 with the same options and requires every OrderedResult
// field to be equal, and the kernel's result to be a valid elimination
// order.
func checkEdgesMatchCSR(t *testing.T, g *hypergraph.Hypergraph, opts Options) {
	t.Helper()
	want, err := parallelOrderCSR(context.Background(), g, 2, opts)
	if err != nil {
		t.Fatalf("CSR peel: %v", err)
	}
	got, err := ParallelOrderEdgesCtx(context.Background(), g.N, g.R, g.Edges, opts)
	if err != nil {
		t.Fatalf("edge kernel: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edge kernel diverged from the CSR peel:\n rounds %d/%d core (%d,%d)/(%d,%d)\n history %v\n want    %v",
			got.Rounds, want.Rounds, got.CoreVertices, got.CoreEdges, want.CoreVertices, want.CoreEdges,
			got.SurvivorHistory, want.SurvivorHistory)
	}
	if opts.MaxRounds == 0 {
		if err := ValidateEliminationOrder(g, got, 2); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelOrderEdgesMatchesCSR is the differential test of the k = 2
// edge kernel against the CSR ordered peel it replaced: partitioned
// r = 3 graphs (the MPHF/Bloomier shape) and uniform r = 4 graphs on
// both sides of the threshold, at several pool sizes and at grains that
// take both the inline and the parallel Phase B.
func TestParallelOrderEdgesMatchesCSR(t *testing.T) {
	const n = 3 * 6000
	type namedGraph struct {
		name string
		g    *hypergraph.Hypergraph
	}
	var graphs []namedGraph
	for i, c := range []float64{0.70, 0.813, 0.83, 0.90} {
		m := int(c * n)
		graphs = append(graphs,
			namedGraph{fmt.Sprintf("partitioned-r3-c%.3f", c), hypergraph.Partitioned(n, m, 3, rng.New(uint64(40+i)))},
			namedGraph{fmt.Sprintf("uniform-r4-c%.3f", c), hypergraph.Uniform(n, m, 4, rng.New(uint64(50+i)))})
	}
	for _, workers := range []int{1, 2, 3, 8} {
		pool := parallel.NewPool(workers)
		for _, grain := range []int{256, 2048} {
			for _, tc := range graphs {
				t.Run(fmt.Sprintf("%s/W=%d/grain=%d", tc.name, workers, grain), func(t *testing.T) {
					checkEdgesMatchCSR(t, tc.g, Options{Pool: pool, Grain: grain})
				})
			}
		}
		// A round cap leaves the pending peel set alive in both peelers.
		t.Run(fmt.Sprintf("max-rounds/W=%d", workers), func(t *testing.T) {
			checkEdgesMatchCSR(t, graphs[0].g, Options{Pool: pool, Grain: 256, MaxRounds: 3})
		})
		pool.Close()
	}
}

// TestParallelOrderEdgesRepeatedVertex covers edges that list a vertex
// more than once, which FromEdges accepts: the repeated vertex counts
// once per listing in both the degree and the edge-id sum, and loses
// both listings when another endpoint frees the edge.
func TestParallelOrderEdgesRepeatedVertex(t *testing.T) {
	edges := []uint32{
		0, 0, 1, // vertex 0 twice
		1, 2, 3,
		3, 4, 5,
		6, 6, 6, // a self-loop of degree 3: core
		5, 7, 7, // vertex 7 twice, freed by 5 only after 3-4-5 goes
	}
	g := hypergraph.FromEdges(9, 3, edges, 0)
	for _, workers := range []int{1, 2, 3, 8} {
		pool := parallel.NewPool(workers)
		for _, grain := range []int{1, 2048} {
			t.Run(fmt.Sprintf("W=%d/grain=%d", workers, grain), func(t *testing.T) {
				checkEdgesMatchCSR(t, g, Options{Pool: pool, Grain: grain})
			})
		}
		pool.Close()
	}
	ord := ParallelOrder(g, 2, Options{})
	if ord.CoreEdges != 1 || ord.CoreVertices != 1 || ord.VertexAlive[6] != 1 {
		t.Fatalf("core = (%d vertices, %d edges), want only the self-loop on vertex 6", ord.CoreVertices, ord.CoreEdges)
	}
}

// TestParallelOrderEdgesCtxCancel cancels the kernel and the CSR peel at
// the same round barrier: both stop there, with the same number of
// Err() calls, and return no result.
func TestParallelOrderEdgesCtxCancel(t *testing.T) {
	g := hypergraph.Partitioned(3*20000, 48000, 3, rng.New(9))
	for _, workers := range []int{1, 2} {
		pool := parallel.NewPool(workers)
		for _, after := range []int64{0, 1, 3} {
			csrCtx := &barrierCtx{cancelAfter: after}
			want, werr := parallelOrderCSR(csrCtx, g, 2, Options{Pool: pool})
			edgeCtx := &barrierCtx{cancelAfter: after}
			got, gerr := ParallelOrderEdgesCtx(edgeCtx, g.N, g.R, g.Edges, Options{Pool: pool})
			if !errors.Is(gerr, context.Canceled) || !errors.Is(werr, context.Canceled) {
				t.Fatalf("W=%d after=%d: errors %v / %v, want Canceled from both", workers, after, gerr, werr)
			}
			if got != nil || want != nil {
				t.Fatalf("W=%d after=%d: a canceled peel returned a result", workers, after)
			}
			if gotCalls, wantCalls := edgeCtx.calls.Load(), csrCtx.calls.Load(); gotCalls != wantCalls || gotCalls != after+1 {
				t.Fatalf("W=%d after=%d: %d Err() calls (CSR %d), want %d", workers, after, gotCalls, wantCalls, after+1)
			}
		}
		pool.Close()
	}
}
