package core

import (
	"testing"

	"repro/internal/parallel"
)

// TestParallelWorkersOption checks that an explicit 3-worker pool
// (Options.Pool) produces exactly the result of the default-pool run and
// the sequential peeler: same rounds, same survivor history, same core —
// on both scan policies.
func TestParallelWorkersOption(t *testing.T) {
	g := uniformGraph(30000, 21000, 4, 30)
	seq := Sequential(g, 2)
	shared := parallel.NewPool(3)
	defer shared.Close()
	for _, scan := range []ScanPolicy{Frontier, FullScan} {
		base := Parallel(g, 2, Options{Scan: scan})
		got := Parallel(g, 2, Options{Scan: scan, Pool: shared})
		if got.Rounds != base.Rounds {
			t.Errorf("scan %v: rounds %d != %d", scan, got.Rounds, base.Rounds)
		}
		if len(got.SurvivorHistory) != len(base.SurvivorHistory) {
			t.Fatalf("scan %v: history length %d != %d",
				scan, len(got.SurvivorHistory), len(base.SurvivorHistory))
		}
		for i := range got.SurvivorHistory {
			if got.SurvivorHistory[i] != base.SurvivorHistory[i] {
				t.Errorf("scan %v: round %d survivors %d != %d",
					scan, i+1, got.SurvivorHistory[i], base.SurvivorHistory[i])
			}
		}
		if got.CoreVertices != seq.CoreVertices || got.CoreEdges != seq.CoreEdges {
			t.Errorf("scan %v: core (%d,%d) != sequential (%d,%d)",
				scan, got.CoreVertices, got.CoreEdges, seq.CoreVertices, seq.CoreEdges)
		}
		for v := 0; v < g.N; v++ {
			if got.VertexAlive[v] != seq.VertexAlive[v] {
				t.Fatalf("scan %v: vertex %d alive mismatch", scan, v)
			}
		}
	}
}

// TestSubtablesWorkersOption checks the same for the subtable peelers: a
// resized pool must not change subrounds, history, or the orientation's
// validity.
func TestSubtablesWorkersOption(t *testing.T) {
	g := partitionedGraph(20000, 14000, 4, 31)
	pool := parallel.NewPool(3)
	defer pool.Close()
	base := Subtables(g, 2, Options{})
	got := Subtables(g, 2, Options{Pool: pool})
	if got.Subrounds != base.Subrounds || got.Rounds != base.Rounds {
		t.Errorf("subrounds/rounds (%d,%d) != (%d,%d)",
			got.Subrounds, got.Rounds, base.Subrounds, base.Rounds)
	}
	for i := range base.SurvivorHistory {
		if got.SurvivorHistory[i] != base.SurvivorHistory[i] {
			t.Errorf("subround %d: survivors %d != %d",
				i+1, got.SurvivorHistory[i], base.SurvivorHistory[i])
		}
	}

	res, orient := SubtablesOriented(g, 2, Options{Pool: pool})
	if res.Subrounds != base.Subrounds {
		t.Errorf("oriented subrounds %d != %d", res.Subrounds, base.Subrounds)
	}
	if !ValidateOrientation(g, orient, 2) {
		t.Error("orientation invalid under resized pool")
	}
}
