package core

import (
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/recurrence"
	"repro/internal/rng"
)

// Degree design changes peeling behaviour — the irregular-ensemble
// contrast the LDPC literature exploits.

func TestRegularEnsembleNeverPeels(t *testing.T) {
	// All degrees exactly 3 >= k = 2: the graph is its own 2-core, so
	// parallel peeling stops after at most a round of stragglers (the
	// few vertices whose stubs were dropped by the matching remainder).
	gen := rng.New(70)
	g := hypergraph.ConfigurationModel(hypergraph.RegularDegrees(30000, 3), 3, gen, parallel.Default())
	res := runParallel(g, 2, Options{})
	frac := float64(res.CoreVertices) / float64(g.N)
	if frac < 0.99 {
		t.Errorf("3-regular graph peeled down to %.3f of vertices; should be its own 2-core", frac)
	}
}

func TestPoissonConfigPeelsLikeUniform(t *testing.T) {
	// The Poisson-degree configuration model is the same ensemble as
	// G^r_{n,cn}: round counts and core emptiness must agree, and the
	// survivor trajectory must track the recurrence.
	n, c, r := 200000, 0.7, 4
	gen := rng.New(71)
	g := hypergraph.ConfigurationModel(hypergraph.PoissonDegrees(n, float64(r)*c, gen), r, gen, parallel.Default())
	res := runParallel(g, 2, Options{})
	if !res.Empty() {
		t.Fatal("Poisson configuration model failed to peel below threshold")
	}
	if res.Rounds < 11 || res.Rounds > 15 {
		t.Errorf("rounds = %d, want ~13", res.Rounds)
	}
	// The realized edge density wobbles around c (Poisson degree sum);
	// compare survivors against the recurrence at the realized density.
	realized := g.EdgeDensity()
	pred, err := recurrence.Params{K: 2, R: r, C: realized}.Trace(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		want := pred[i].Lambda * float64(n)
		got := float64(res.SurvivorHistory[i])
		if got < want*0.99-1000 || got > want*1.01+1000 {
			t.Errorf("round %d: survivors %.0f vs recurrence %.0f", i+1, got, want)
		}
	}
}

func TestBimodalEnsembleCoreStructure(t *testing.T) {
	// Half the vertices at degree 1, half at degree 5 (same mean as
	// Poisson(3)): the heavy half forms a much more resilient core than
	// the Poisson ensemble at equal density would.
	n := 30000
	degs := make([]int32, n)
	for i := range degs {
		if i%2 == 0 {
			degs[i] = 1
		} else {
			degs[i] = 5
		}
	}
	gen := rng.New(72)
	g := hypergraph.ConfigurationModel(degs, 3, gen, parallel.Default())
	res := Sequential(g, 2)
	// Edge density is (n/2·1 + n/2·5)/(3n) = 1.0 — above c*(2,3), so a
	// large core must survive, concentrated on heavy vertices.
	if res.Empty() {
		t.Fatal("bimodal ensemble at density 1.0 peeled to empty")
	}
	heavyAlive, lightAlive := 0, 0
	for v := 0; v < n; v++ {
		if res.VertexAlive[v] != 0 {
			if v%2 == 0 {
				lightAlive++
			} else {
				heavyAlive++
			}
		}
	}
	if heavyAlive <= lightAlive {
		t.Errorf("core composition: %d heavy vs %d light; heavy should dominate", heavyAlive, lightAlive)
	}
}
