package cuckoo

import (
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/rng"
)

func graph(n, m, r int, seed uint64) *hypergraph.Hypergraph {
	return hypergraph.Partitioned(n, m, r, rng.New(seed), parallel.Default())
}

func TestPeelingPlacementBelowThreshold(t *testing.T) {
	// load 0.7 < c*(2,3) ~ 0.818: peeling places everything.
	g := graph(30000, 21000, 3, 1)
	placement, ok := PlaceByPeeling(g)
	if !ok {
		t.Fatal("peeling placement failed below threshold")
	}
	if !ValidPlacement(g, placement, true) {
		t.Fatal("peeling placement invalid")
	}
}

func TestPeelingPlacementFailsAboveItsThreshold(t *testing.T) {
	// load 0.87: above c*(2,3) but below the orientability threshold
	// (~0.917) — the regime where peeling loses to random walk.
	g := graph(30000, 26100, 3, 2)
	placement, ok := PlaceByPeeling(g)
	if ok {
		t.Fatal("peeling placement claimed success at load 0.87")
	}
	// Partial placement must still be internally valid.
	if !ValidPlacement(g, placement, false) {
		t.Fatal("partial peeling placement invalid")
	}
}

func TestRandomWalkBeatsPeelingThreshold(t *testing.T) {
	// Same load 0.87 instance class: random walk succeeds w.h.p.
	g := graph(30000, 26100, 3, 3)
	placement, ok := PlaceByRandomWalk(g, 2000, rng.New(99))
	if !ok {
		t.Fatal("random walk failed at load 0.87 (below orientability threshold)")
	}
	if !ValidPlacement(g, placement, true) {
		t.Fatal("random-walk placement invalid")
	}
}

func TestRandomWalkFailsWayAboveThreshold(t *testing.T) {
	// load 0.96 > orientability threshold ~0.917: must fail.
	g := graph(10002, 9600, 3, 4)
	_, ok := PlaceByRandomWalk(g, 500, rng.New(7))
	if ok {
		t.Fatal("random walk claimed success at load 0.96")
	}
}

func TestPlacementsAgreeWhereBothSucceed(t *testing.T) {
	g := graph(12000, 8000, 4, 5)
	p1, ok1 := PlaceByPeeling(g)
	p2, ok2 := PlaceByRandomWalk(g, 1000, rng.New(8))
	if !ok1 || !ok2 {
		t.Fatal("a placement failed at low load")
	}
	if !ValidPlacement(g, p1, true) || !ValidPlacement(g, p2, true) {
		t.Fatal("invalid placement")
	}
}

func TestValidPlacementRejections(t *testing.T) {
	g := graph(30, 10, 3, 6)
	placement, ok := PlaceByPeeling(g)
	if !ok {
		t.Skip("tiny instance failed to peel")
	}
	// Wrong length.
	if ValidPlacement(g, placement[:5], true) {
		t.Error("short placement accepted")
	}
	// Cell not among candidates.
	bad := append([]uint32(nil), placement...)
	for v := uint32(0); v < uint32(g.N); v++ {
		isCandidate := false
		for _, u := range g.EdgeVertices(0) {
			if u == v {
				isCandidate = true
			}
		}
		if !isCandidate {
			bad[0] = v
			break
		}
	}
	if ValidPlacement(g, bad, true) {
		t.Error("placement with foreign cell accepted")
	}
	// Duplicate cell.
	bad = append([]uint32(nil), placement...)
	bad[1] = bad[0]
	if ValidPlacement(g, bad, true) {
		t.Error("placement with duplicated cell accepted")
	}
	// Incomplete placement rejected when complete=true.
	bad = append([]uint32(nil), placement...)
	bad[2] = NotPlaced
	if ValidPlacement(g, bad, true) {
		t.Error("incomplete placement accepted as complete")
	}
	if !ValidPlacement(g, bad, false) {
		t.Error("incomplete placement rejected as partial")
	}
}

func BenchmarkPlaceByPeeling(b *testing.B) {
	g := graph(131070, 90000, 3, 1) // n divisible by r
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PlaceByPeeling(g)
	}
}

func BenchmarkPlaceByRandomWalk(b *testing.B) {
	g := graph(131070, 90000, 3, 1)
	gen := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PlaceByRandomWalk(g, 1000, gen)
	}
}
