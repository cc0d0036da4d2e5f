package iblt

import (
	"context"
	"math"
	"testing"

	"repro/internal/parallel"
)

// reconcile is ReconcileCtx on the default pool with a background
// context.
func reconcile(localKeys, remoteKeys []uint64, seed uint64, headroom float64) (onlyLocal, onlyRemote []uint64, wireBytes int, err error) {
	return ReconcileCtx(context.Background(), localKeys, remoteKeys, seed, headroom, parallel.Default())
}

func TestStrataEstimateAccuracy(t *testing.T) {
	// Estimates should land within a factor ~2 of the truth across three
	// orders of magnitude of difference size.
	for _, diff := range []int{8, 100, 1000, 10000} {
		common := randomKeys(20000, uint64(50+diff))
		onlyA := randomKeys(diff/2, uint64(51+diff))
		onlyB := randomKeys(diff-diff/2, uint64(52+diff))

		ea := NewStrataEstimator(7)
		ea.InsertAllWithPool(common, parallel.Default())
		ea.InsertAllWithPool(onlyA, parallel.Default())
		eb := NewStrataEstimator(7)
		eb.InsertAllWithPool(common, parallel.Default())
		eb.InsertAllWithPool(onlyB, parallel.Default())
		ea.Subtract(eb)
		est := ea.Estimate()
		if est < diff/3 || est > diff*3 {
			t.Errorf("true difference %d estimated as %d", diff, est)
		}
	}
}

func TestStrataZeroDifference(t *testing.T) {
	keys := randomKeys(5000, 60)
	ea := NewStrataEstimator(9)
	ea.InsertAllWithPool(keys, parallel.Default())
	eb := NewStrataEstimator(9)
	eb.InsertAllWithPool(keys, parallel.Default())
	ea.Subtract(eb)
	if est := ea.Estimate(); est != 0 {
		t.Errorf("identical sets estimated difference %d", est)
	}
}

func TestStrataIncompatiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("incompatible strata subtract did not panic")
		}
	}()
	NewStrataEstimator(1).Subtract(NewStrataEstimator(2))
}

func TestStrataSamplingBalance(t *testing.T) {
	// Stratum i should receive ~2^{-(i+1)} of the keys.
	e := NewStrataEstimator(3)
	const n = 1 << 16
	counts := make([]int, strataDepth)
	for _, k := range randomKeys(n, 61) {
		counts[e.stratumOf(k)]++
	}
	for i := 0; i < 6; i++ {
		want := float64(n) / math.Pow(2, float64(i+1))
		got := float64(counts[i])
		if math.Abs(got-want) > 6*math.Sqrt(want) {
			t.Errorf("stratum %d: %v keys, want ~%.0f", i, got, want)
		}
	}
}

func TestReconcileEndToEnd(t *testing.T) {
	for _, diff := range []int{10, 300, 3000} {
		common := randomKeys(30000, uint64(70+diff))
		onlyA := randomKeys(diff/2, uint64(71+diff))
		onlyB := randomKeys(diff-diff/2, uint64(72+diff))
		a := append(append([]uint64(nil), common...), onlyA...)
		b := append(append([]uint64(nil), common...), onlyB...)

		gotA, gotB, wire, err := reconcile(a, b, 99, 1.5)
		if err != nil {
			t.Fatalf("diff %d: %v", diff, err)
		}
		if !equalSets(gotA, onlyA) || !equalSets(gotB, onlyB) {
			t.Fatalf("diff %d: wrong difference sets (%d/%d vs %d/%d)",
				diff, len(gotA), len(gotB), len(onlyA), len(onlyB))
		}
		if wire <= 0 {
			t.Errorf("diff %d: non-positive wire bytes", diff)
		}
		// The protocol's selling point: bandwidth scales with the
		// difference, not the sets. For diff=300 on 30k-key sets the
		// whole exchange must be far below shipping either set (240 KB).
		if diff == 300 && wire > 150_000 {
			t.Errorf("diff 300: wire %d bytes, want far below set transfer", wire)
		}
	}
}

func TestReconcileIdenticalSets(t *testing.T) {
	keys := randomKeys(10000, 80)
	a, b, _, err := reconcile(keys, keys, 5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 0 || len(b) != 0 {
		t.Errorf("identical sets reconciled to %d/%d differences", len(a), len(b))
	}
}

func TestStrataWireRoundTrip(t *testing.T) {
	e := NewStrataEstimator(41)
	e.InsertAllWithPool(randomKeys(3000, 90), parallel.Default())
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != e.WireSize() {
		t.Errorf("wire size %d != %d", len(data), e.WireSize())
	}
	var back StrataEstimator
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	// The reconstructed estimator must behave identically: subtracting
	// the original from it estimates zero difference.
	back.Subtract(e)
	if est := back.Estimate(); est != 0 {
		t.Errorf("round-tripped estimator differs from original: estimate %d", est)
	}
}

func TestStrataWireRejectsCorruption(t *testing.T) {
	e := NewStrataEstimator(42)
	e.Insert(5)
	data, _ := e.MarshalBinary()
	var back StrataEstimator
	if err := back.UnmarshalBinary(data[:5]); err == nil {
		t.Error("short strata payload accepted")
	}
	if err := back.UnmarshalBinary(data[:len(data)-3]); err == nil {
		t.Error("truncated strata payload accepted")
	}
	if err := back.UnmarshalBinary(append(data, 1, 2, 3)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func BenchmarkStrataInsert(b *testing.B) {
	e := NewStrataEstimator(1)
	keys := randomKeys(1<<12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Insert(keys[i&(1<<12-1)])
	}
}

func BenchmarkReconcile1000(b *testing.B) {
	common := randomKeys(20000, 1)
	onlyA := randomKeys(500, 2)
	onlyB := randomKeys(500, 3)
	a := append(append([]uint64(nil), common...), onlyA...)
	bb := append(append([]uint64(nil), common...), onlyB...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := reconcile(a, bb, uint64(i), 1.5); err != nil {
			b.Fatal(err)
		}
	}
}
