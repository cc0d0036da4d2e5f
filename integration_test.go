package repro

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/branching"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fountain"
	"repro/internal/hypergraph"
	"repro/internal/recurrence"
	"repro/internal/rng"
	"repro/internal/threshold"
)

// Integration tests: cross-module flows a downstream user would compose,
// each checking an invariant that spans at least two packages.

// The modeling chain of the paper: branching tree == recurrence == graph
// simulation, at several rounds.
func TestIntegrationModelChain(t *testing.T) {
	k, r, c := 2, 4, 0.7
	n := 1 << 18
	g := NewUniformHypergraph(n, int(c*float64(n)), r, 77)
	sim, err := DefaultRuntime().Peel(context.Background(), g, k, PeelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := recurrence.Params{K: k, R: r, C: c}.Trace(sim.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	tree := branching.Params{K: k, R: r, C: c}

	for _, round := range []int{1, 3, 5} {
		lamRec := rec[round-1].Lambda
		lamSim := float64(sim.SurvivorHistory[round-1]) / float64(n)
		lamTree := tree.SurvivalProbability(round, 20000, 123)
		if math.Abs(lamRec-lamSim) > 0.01 {
			t.Errorf("round %d: recurrence %.4f vs graph %.4f", round, lamRec, lamSim)
		}
		if math.Abs(lamRec-lamTree) > 0.02 {
			t.Errorf("round %d: recurrence %.4f vs tree MC %.4f", round, lamRec, lamTree)
		}
	}
}

// Serialize a graph, reload it, and verify every peeler agrees with the
// original on rounds and core — the peeltool round trip.
func TestIntegrationSerializePeel(t *testing.T) {
	g := NewPartitionedHypergraph(40000, 28000, 4, 88)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := hypergraph.ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := peelSubtables(t, g, 2)
	b := peelSubtables(t, loaded, 2)
	if a.Subrounds != b.Subrounds || a.CoreVertices != b.CoreVertices {
		t.Error("reloaded graph peels differently")
	}
}

// Depth, coreness, and the three peelers must tell one consistent story
// on one shared instance.
func TestIntegrationStructuralViews(t *testing.T) {
	g := NewUniformHypergraph(30000, 36000, 3, 99) // c = 1.2: layered cores
	coreness := CorenessAll(g)
	for _, k := range []int{2, 3, 4} {
		depth := PeelDepths(g, k)
		par, err := DefaultRuntime().Peel(context.Background(), g, k, PeelOptions{Scan: FullScan})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N; v++ {
			inCore := par.VertexAlive[v] != 0
			if inCore != (depth[v] == core.InCore) {
				t.Fatalf("k=%d vertex %d: depth/parallel disagree", k, v)
			}
			if inCore != (coreness[v] >= int32(k)) {
				t.Fatalf("k=%d vertex %d: coreness/parallel disagree", k, v)
			}
		}
	}
}

// The IBLT's hypergraph is the partitioned model, so its recovery rounds
// should track the subtable peeler's rounds on a matched instance.
func TestIntegrationIBLTMatchesSubtablePeeling(t *testing.T) {
	cells := 60000
	load := 0.70
	nKeys := int(load * float64(cells))

	tbl := NewIBLT(cells, 4, 555)
	gen := rng.New(556)
	keys := make([]uint64, nKeys)
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = gen.Uint64()
		}
	}
	tbl.InsertAll(keys)
	res := tbl.DecodeParallel()
	if !res.Complete {
		t.Fatal("IBLT decode failed below threshold")
	}

	g := NewPartitionedHypergraph(cells, nKeys, 4, 557)
	peel := peelSubtables(t, g, 2)
	if !peel.Empty() {
		t.Fatal("matched hypergraph did not peel")
	}
	// Same process, independent randomness: round counts agree within a
	// couple of rounds (both concentrate per Appendix B).
	if d := res.Rounds - peel.Rounds; d < -2 || d > 2 {
		t.Errorf("IBLT rounds %d vs subtable peel rounds %d", res.Rounds, peel.Rounds)
	}
}

// Thresholds drive every application: pushing each structure just past
// its design threshold must flip it from reliable to failing.
func TestIntegrationThresholdGovernsApplications(t *testing.T) {
	cstar, _ := threshold.Threshold(2, 3)

	// Erasure code at 95% of threshold loss: recovers. At 115%: fails.
	code := NewErasureCode(2000, 3, 666)
	data := make([]uint64, 20000)
	gen := rng.New(667)
	for i := range data {
		data[i] = gen.Uint64()
	}
	checks := code.Encode(data)
	run := func(losses int) error {
		d := append([]uint64(nil), data...)
		present := make([]bool, len(d))
		for i := range present {
			present[i] = true
		}
		for _, i := range gen.Perm(len(d))[:losses] {
			present[i] = false
			d[i] = 0
		}
		return code.Decode(d, present, checks)
	}
	if err := run(int(0.95 * cstar * 2000)); err != nil {
		t.Errorf("erasure decode failed below threshold: %v", err)
	}
	if err := run(int(1.15 * cstar * 2000)); err == nil {
		t.Error("erasure decode succeeded well above threshold")
	}

	// XORSAT peel-only solvability flips at the same constant.
	below := NewRandomXORSAT(20000, int(0.95*cstar*20000), 3, 668)
	if !below.PeelOnlySolvable() {
		t.Error("XORSAT not peel-only solvable below threshold")
	}
	above := NewRandomXORSAT(20000, int(1.1*cstar*20000), 3, 669)
	if above.PeelOnlySolvable() {
		t.Error("XORSAT peel-only solvable above threshold")
	}
}

// Fountain decoding is peeling on a variable-arity graph; its overhead
// at moderate k lands in the classic LT range (tens of percent, not 2x).
func TestIntegrationFountainOverhead(t *testing.T) {
	const k = 5000
	msg := make([]uint64, k)
	gen := rng.New(777)
	for i := range msg {
		msg[i] = gen.Uint64()
	}
	enc, err := fountain.NewEncoder(msg, fountain.DefaultParams(), 778)
	if err != nil {
		t.Fatal(err)
	}
	symbols := enc.Emit(k)
	for extra := 0; ; extra++ {
		if _, _, err := fountain.Decode(k, symbols, fountain.DefaultParams()); err == nil {
			overhead := float64(len(symbols))/k - 1
			if overhead > 0.5 {
				t.Errorf("LT overhead %.2f, want well under 0.5", overhead)
			}
			return
		}
		if extra > 20 {
			t.Fatal("fountain decode never succeeded")
		}
		symbols = append(symbols, enc.Emit(k/20)...)
	}
}

// The experiments harness agrees with direct recurrence evaluation — a
// guard against config plumbing bugs in the table runners.
func TestIntegrationHarnessConsistency(t *testing.T) {
	cfg := experiments.Table2Config{
		K: 2, R: 4, N: 1 << 16, Cs: []float64{0.7}, Rounds: 5, Trials: 2, Seed: 888,
	}
	res := experiments.RunTable2(cfg)
	direct, err := recurrence.Params{K: 2, R: 4, C: 0.7}.Trace(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		want := direct[i].Lambda * float64(cfg.N)
		if math.Abs(res.Series[0].Prediction[i]-want) > 1e-6 {
			t.Errorf("round %d: harness prediction %.3f vs direct %.3f",
				i+1, res.Series[0].Prediction[i], want)
		}
	}
}
