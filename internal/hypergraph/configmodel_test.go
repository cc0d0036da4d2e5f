package hypergraph

import (
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/rng"
)

func TestConfigurationModelDegreesHonored(t *testing.T) {
	gen := rng.New(1)
	degrees := PoissonDegrees(5000, 2.8, gen)
	g := ConfigurationModel(degrees, 4, gen, parallel.Default())

	// Total stubs minus the dropped remainder must equal m*r.
	total := 0
	for _, d := range degrees {
		total += int(d)
	}
	if g.M != total/4 {
		t.Fatalf("m = %d, want %d", g.M, total/4)
	}
	// Per-vertex degree differs from the target by at most the dropped
	// remainder (< r stubs total across all vertices).
	droppedBudget := total - g.M*4
	excess := 0
	for v := 0; v < g.N; v++ {
		diff := int(degrees[v]) - g.Degree(v)
		if diff < 0 {
			t.Fatalf("vertex %d gained degree: %d > %d", v, g.Degree(v), degrees[v])
		}
		excess += diff
	}
	if excess != droppedBudget {
		t.Errorf("dropped %d stubs, budget %d", excess, droppedBudget)
	}
}

func TestConfigurationModelDistinctVertices(t *testing.T) {
	gen := rng.New(2)
	degrees := PoissonDegrees(3000, 3.0, gen)
	g := ConfigurationModel(degrees, 3, gen, parallel.Default())
	for e := 0; e < g.M; e++ {
		vs := g.EdgeVertices(e)
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				if vs[i] == vs[j] {
					t.Fatalf("edge %d has duplicate vertex %d", e, vs[i])
				}
			}
		}
	}
}

func TestRegularGraphIsItsOwnCore(t *testing.T) {
	// Every vertex has degree exactly 3 (up to the dropped remainder), so
	// 2-core peeling removes (almost) nothing: the graph IS its 2-core.
	// This is the designed contrast with Poisson ensembles, whose
	// low-degree tail seeds the peeling avalanche.
	gen := rng.New(3)
	n := 3000
	g := ConfigurationModel(RegularDegrees(n, 3), 3, gen, parallel.Default())
	removedBudget := 3 * 3 // dropped stubs can lower at most r-1 vertices below 3, cascades bounded small
	deg2 := 0
	for v := 0; v < g.N; v++ {
		if g.Degree(v) < 2 {
			deg2++
		}
	}
	if deg2 > removedBudget {
		t.Fatalf("%d vertices below degree 2 in a 3-regular model", deg2)
	}
}

func TestPoissonConfigMatchesUniformEnsemble(t *testing.T) {
	// A configuration model with Poisson(rc) degrees is (asymptotically)
	// the same ensemble as Uniform(n, cn, r): degree histograms must
	// match within sampling error.
	n, c, r := 100000, 0.7, 4
	gen := rng.New(4)
	cfgGraph := ConfigurationModel(PoissonDegrees(n, float64(r)*c, gen), r, gen, parallel.Default())
	uniGraph := Uniform(n, int(c*float64(n)), r, rng.New(5), parallel.Default())
	hc := cfgGraph.DegreeHistogram(10)
	hu := uniGraph.DegreeHistogram(10)
	for d := 0; d <= 8; d++ {
		diff := math.Abs(float64(hc[d] - hu[d]))
		tol := 6*math.Sqrt(float64(hu[d]+1)) + 50
		if diff > tol {
			t.Errorf("degree %d: config %d vs uniform %d (tol %.0f)", d, hc[d], hu[d], tol)
		}
	}
}

func TestConfigurationModelValidation(t *testing.T) {
	gen := rng.New(6)
	for name, f := range map[string]func(){
		"bad arity":       func() { ConfigurationModel(RegularDegrees(10, 2), 1, gen, parallel.Default()) },
		"negative degree": func() { ConfigurationModel([]int32{2, -1, 2}, 3, gen, parallel.Default()) },
		"impossible concentration": func() {
			// One vertex holds half of all stubs: no valid 3-uniform
			// matching with distinct vertices exists.
			degs := []int32{90, 1, 1, 1, 1, 1, 1}
			ConfigurationModel(degs, 3, gen, parallel.Default())
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestConfigurationModelEmpty(t *testing.T) {
	g := ConfigurationModel(make([]int32, 100), 3, rng.New(7), parallel.Default())
	if g.M != 0 || g.N != 100 {
		t.Errorf("empty degrees produced m=%d", g.M)
	}
}

func BenchmarkConfigurationModel(b *testing.B) {
	gen := rng.New(1)
	degrees := PoissonDegrees(1<<17, 2.8, gen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConfigurationModel(degrees, 4, rng.New(uint64(i)), parallel.Default())
	}
}
