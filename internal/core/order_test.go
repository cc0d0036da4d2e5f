package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// TestParallelOrderMatchesParallel checks the ordered peel computes the
// same peeling process as ParallelCtx — identical rounds, survivor history,
// and k-core — and the same peeled edge set as Sequential (peeling is
// confluent), on below- and above-threshold instances.
func TestParallelOrderMatchesParallel(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *hypergraph.Hypergraph
		k    int
	}{
		{"below-threshold", hypergraph.Uniform(60000, 42000, 3, rng.New(11), parallel.Default()), 2},
		{"above-threshold", hypergraph.Uniform(40000, 36000, 3, rng.New(12), parallel.Default()), 2},
		{"k3", hypergraph.Uniform(30000, 36000, 4, rng.New(13), parallel.Default()), 3},
		{"partitioned", hypergraph.Partitioned(3*20000, 44000, 3, rng.New(14), parallel.Default()), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runParallel(tc.g, tc.k, Options{})
			ord := runOrder(tc.g, tc.k, Options{})
			if ord.Rounds != want.Rounds || ord.CoreVertices != want.CoreVertices || ord.CoreEdges != want.CoreEdges {
				t.Fatalf("ordered peel diverged: got rounds=%d core=(%d,%d), want rounds=%d core=(%d,%d)",
					ord.Rounds, ord.CoreVertices, ord.CoreEdges, want.Rounds, want.CoreVertices, want.CoreEdges)
			}
			if !reflect.DeepEqual(ord.SurvivorHistory, want.SurvivorHistory) {
				t.Fatal("survivor history diverged from Parallel")
			}
			seq := Sequential(tc.g, tc.k)
			if !reflect.DeepEqual(ord.EdgeAlive, seq.EdgeAlive) || !reflect.DeepEqual(ord.VertexAlive, seq.VertexAlive) {
				t.Fatal("ordered peel removed a different set than Sequential (confluence violated)")
			}
			if err := CoreDegreesValid(tc.g, &ord.Result, tc.k); err != nil {
				t.Fatal(err)
			}
			if len(ord.PeelOrder)+ord.CoreEdges != tc.g.M {
				t.Fatalf("PeelOrder has %d edges + %d core != m=%d", len(ord.PeelOrder), ord.CoreEdges, tc.g.M)
			}
		})
	}
}

// TestParallelOrderDeterministic is the bit-stability contract: the
// ordered peel returns identical PeelOrder, FreeVertex, RoundOf, and
// RoundStart at every worker count (1/3/8) and across repeated runs at
// the same count — scheduling and shard-drain order must not leak into
// the result.
func TestParallelOrderDeterministic(t *testing.T) {
	g := hypergraph.Uniform(80000, 60000, 3, rng.New(21), parallel.Default())
	ref := runOrder(g, 2, Options{})
	if !ref.Empty() {
		t.Fatal("instance unexpectedly above threshold")
	}
	check := func(name string, got *OrderedResult) {
		t.Helper()
		if !reflect.DeepEqual(got.PeelOrder, ref.PeelOrder) {
			t.Fatalf("%s: PeelOrder diverged", name)
		}
		if !reflect.DeepEqual(got.FreeVertex, ref.FreeVertex) {
			t.Fatalf("%s: FreeVertex diverged", name)
		}
		if !reflect.DeepEqual(got.RoundOf, ref.RoundOf) {
			t.Fatalf("%s: RoundOf diverged", name)
		}
		if !reflect.DeepEqual(got.RoundStart, ref.RoundStart) {
			t.Fatalf("%s: RoundStart diverged", name)
		}
	}
	for _, workers := range []int{1, 3, 8} {
		pool := parallel.NewPool(workers)
		check("workers=1st", runOrder(g, 2, Options{Pool: pool}))
		check("workers=2nd", runOrder(g, 2, Options{Pool: pool}))
		pool.Close()
	}
	// FullScan must agree with Frontier: the scan policy selects how
	// Phase A finds candidates, not what the process removes.
	check("fullscan", runOrder(g, 2, Options{Scan: FullScan}))
}

// TestParallelOrderEliminationProperty is the property test: reverse
// round-major order is a valid elimination order at k = 2 — structural
// consistency plus the guarantee that a peeled edge's non-free
// endpoints finalize in strictly later rounds — across random sizes,
// densities, seeds, and both scan policies.
func TestParallelOrderEliminationProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16, fullScan bool) bool {
		n := int(nRaw%5000) + 10
		m := int(mRaw) % (n + n/2)
		g := hypergraph.Uniform(n, m, 3, rng.New(seed), parallel.Default())
		opts := Options{}
		if fullScan {
			opts.Scan = FullScan
		}
		ord := runOrder(g, 2, opts)
		if err := ValidateEliminationOrder(g, ord, 2); err != nil {
			t.Logf("n=%d m=%d seed=%d: %v", n, m, seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Error(err)
	}
}

// TestParallelOrderEdgeCases covers empty graphs, edgeless graphs, and
// fully-core graphs.
func TestParallelOrderEdgeCases(t *testing.T) {
	// No edges: the isolated vertices peel in one round (matching
	// ParallelCtx), releasing nothing.
	g := hypergraph.FromEdges(10, 2, nil, 0)
	ord := runOrder(g, 2, Options{})
	if !ord.Empty() || len(ord.PeelOrder) != 0 || ord.Rounds != 1 || len(ord.RoundStart) != 2 {
		t.Fatalf("edgeless graph: rounds=%d order=%d start=%v", ord.Rounds, len(ord.PeelOrder), ord.RoundStart)
	}
	// A 3-edge triangle-like system where every vertex has degree 2:
	// nothing peels at k=2, everything is core.
	edges := []uint32{0, 1, 1, 2, 2, 0}
	g = hypergraph.FromEdges(3, 2, edges, 0)
	ord = runOrder(g, 2, Options{})
	if ord.Rounds != 0 || ord.CoreEdges != 3 || len(ord.PeelOrder) != 0 {
		t.Fatalf("full-core graph peeled: rounds=%d core=%d", ord.Rounds, ord.CoreEdges)
	}
	for e := range ord.FreeVertex {
		if ord.FreeVertex[e] != NoVertex || ord.RoundOf[e] != 0 {
			t.Fatal("core edge carries an orientation")
		}
	}
	if err := ValidateEliminationOrder(g, ord, 2); err != nil {
		t.Fatal(err)
	}
}

// TestParallelOrderMinClaim pins the deterministic tie-break: when two
// endpoints of an edge peel in the same round, the minimum vertex id
// frees the edge. A single degree-1–degree-1 edge makes both endpoints
// round-1 candidates.
func TestParallelOrderMinClaim(t *testing.T) {
	g := hypergraph.FromEdges(5, 2, []uint32{4, 2}, 0)
	ord := runOrder(g, 2, Options{})
	if !ord.Empty() || len(ord.PeelOrder) != 1 {
		t.Fatalf("single edge did not peel: %+v", ord.Result)
	}
	if ord.FreeVertex[0] != 2 {
		t.Fatalf("FreeVertex = %d, want the minimum endpoint 2", ord.FreeVertex[0])
	}
	if ord.RoundOf[0] != 1 {
		t.Fatalf("RoundOf = %d, want 1", ord.RoundOf[0])
	}
}
