package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/recurrence"
	"repro/internal/rng"
)

func partitionedGraph(n, m, r int, seed uint64) *hypergraph.Hypergraph {
	return hypergraph.Partitioned(n, m, r, rng.New(seed), parallel.Default())
}

func TestSubtablesMatchesSequentialCore(t *testing.T) {
	for _, cfg := range []struct {
		n, m, r, k int
		seed       uint64
	}{
		{20000, 14000, 4, 2, 40},
		{20000, 17000, 4, 2, 41},
		{21000, 27000, 3, 3, 42},
	} {
		g := partitionedGraph(cfg.n, cfg.m, cfg.r, cfg.seed)
		seq := Sequential(g, cfg.k)
		sub := runSubtables(g, cfg.k, Options{})
		if sub.CoreVertices != seq.CoreVertices || sub.CoreEdges != seq.CoreEdges {
			t.Errorf("cfg %+v: subtable core (%d,%d) != sequential (%d,%d)",
				cfg, sub.CoreVertices, sub.CoreEdges, seq.CoreVertices, seq.CoreEdges)
		}
		for v := 0; v < g.N; v++ {
			if sub.VertexAlive[v] != seq.VertexAlive[v] {
				t.Fatalf("cfg %+v: vertex %d mismatch", cfg, v)
			}
		}
		if err := CoreDegreesValid(g, sub, cfg.k); err != nil {
			t.Errorf("cfg %+v: %v", cfg, err)
		}
	}
}

func TestSubtablesRequiresPartitioned(t *testing.T) {
	g := hypergraph.Uniform(1000, 700, 4, rng.New(43), parallel.Default())
	defer func() {
		if recover() == nil {
			t.Error("Subtables on unpartitioned graph did not panic")
		}
	}()
	runSubtables(g, 2, Options{})
}

func TestSubroundsMatchTable5(t *testing.T) {
	// Table 5: r=4, k=2, c=0.7 needs ~26.5 subrounds at n=160k (and the
	// count is well below r × the ~13 plain rounds).
	n := 160000
	g := partitionedGraph(n, int(0.7*float64(n)), 4, 44)
	res := runSubtables(g, 2, Options{})
	if !res.Empty() {
		t.Fatal("subtable peeling failed below threshold")
	}
	if res.Subrounds < 24 || res.Subrounds > 29 {
		t.Errorf("subrounds = %d, want ~26-27 (Table 5)", res.Subrounds)
	}
	plain := runParallel(g, 2, Options{})
	if float64(res.Subrounds) >= 4*float64(plain.Rounds) {
		t.Errorf("subrounds %d not below r×rounds = %d", res.Subrounds, 4*plain.Rounds)
	}
}

func TestSubtableSurvivorsMatchRecurrence(t *testing.T) {
	// Table 6 reproduction at reduced n: survivors after subround (i,j)
	// track λ'_{i,j}·n.
	n := 200000
	c := 0.7
	g := partitionedGraph(n, int(c*float64(n)), 4, 45)
	res := runSubtables(g, 2, Options{})
	pred, err := recurrence.Params{K: 2, R: 4, C: c}.SubtableTrace(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(pred) && i < len(res.SurvivorHistory) && i < 16; i++ {
		want := pred[i].MixedFra * float64(n)
		got := float64(res.SurvivorHistory[i])
		tol := 6*math.Sqrt(float64(n)) + 0.005*want
		if math.Abs(got-want) > tol {
			t.Errorf("subround (%d,%d): survivors %v, recurrence predicts %.0f (tol %.0f)",
				pred[i].Round, pred[i].Subtable, got, want, tol)
		}
	}
}

func TestSubtablesFasterThanNaiveSerialization(t *testing.T) {
	// Appendix B's point: subrounds ≈ 2× rounds at r=4, not 4×. Check the
	// ratio lands in a sensible band on a concrete instance.
	n := 160000
	g := partitionedGraph(n, int(0.7*float64(n)), 4, 46)
	sub := runSubtables(g, 2, Options{})
	plain := runParallel(g, 2, Options{})
	ratio := float64(sub.Subrounds) / float64(plain.Rounds)
	if ratio < 1.2 || ratio > 3.0 {
		t.Errorf("subround/round ratio %.2f outside plausible band (sub=%d plain=%d)",
			ratio, sub.Subrounds, plain.Rounds)
	}
}

func TestSubtableHistoryMonotone(t *testing.T) {
	g := partitionedGraph(40000, 28000, 4, 47)
	res := runSubtables(g, 2, Options{})
	prev := g.N
	for i, s := range res.SurvivorHistory {
		if s > prev {
			t.Fatalf("subround %d: survivors increased %d -> %d", i+1, prev, s)
		}
		prev = s
	}
	if res.Rounds*4 < res.Subrounds {
		t.Errorf("rounds %d inconsistent with subrounds %d", res.Rounds, res.Subrounds)
	}
}

func TestSubtableDeterministic(t *testing.T) {
	g := partitionedGraph(40000, 28000, 4, 48)
	a := runSubtables(g, 2, Options{})
	b := runSubtables(g, 2, Options{})
	if a.Subrounds != b.Subrounds || a.CoreVertices != b.CoreVertices {
		t.Errorf("two subtable runs disagree: subrounds %d/%d", a.Subrounds, b.Subrounds)
	}
	for i := range a.SurvivorHistory {
		if a.SurvivorHistory[i] != b.SurvivorHistory[i] {
			t.Fatalf("subround %d: histories differ", i+1)
		}
	}
}

func TestSubtableAboveThreshold(t *testing.T) {
	n := 40000
	g := partitionedGraph(n, int(0.85*float64(n)), 4, 49)
	res := runSubtables(g, 2, Options{})
	if res.Empty() {
		t.Fatal("above-threshold subtable peel emptied the core")
	}
	frac := float64(res.CoreVertices) / float64(n)
	if math.Abs(frac-0.775) > 0.02 {
		t.Errorf("core fraction %.4f, want ~0.775", frac)
	}
}

func TestSubtableConfluenceQuick(t *testing.T) {
	f := func(seed uint64, mRaw uint16, kRaw uint8) bool {
		n := 300 // divisible by 3
		m := int(mRaw % 400)
		k := int(kRaw%3) + 1
		g := hypergraph.Partitioned(n, m, 3, rng.New(seed), parallel.Default())
		seq := Sequential(g, k)
		sub := runSubtables(g, k, Options{})
		if seq.CoreVertices != sub.CoreVertices || seq.CoreEdges != sub.CoreEdges {
			return false
		}
		for v := 0; v < n; v++ {
			if seq.VertexAlive[v] != sub.VertexAlive[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSubtablePeel(b *testing.B) {
	g := partitionedGraph(1<<18, 180000, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSubtables(g, 2, Options{})
	}
}
