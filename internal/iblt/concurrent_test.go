package iblt

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/parallel"
)

// TestDecodeWithPoolMatchesSerial checks both pool-threaded decoders
// against the serial decoder on shared and failing loads: same recovered
// set (peeling is confluent), same completeness.
func TestDecodeWithPoolMatchesSerial(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	for _, load := range []float64{0.5, 0.75, 0.9} {
		cells := 6000
		keys := randomKeys(int(load*float64(cells)), uint64(100+int(load*100)))
		master := New(cells, 3, 77)
		master.InsertAllWithPool(keys, pool)

		addedS, _, okS := master.Clone().Decode()
		full := master.Clone().DecodeParallelWithPool(pool)
		frontier := master.Clone().DecodeParallelFrontierWithPool(pool)

		if full.Complete != okS || frontier.Complete != okS {
			t.Errorf("load %v: complete serial=%v full=%v frontier=%v",
				load, okS, full.Complete, frontier.Complete)
		}
		if !equalSets(full.Added, addedS) {
			t.Errorf("load %v: DecodeParallelWithPool recovered %d keys, serial %d",
				load, len(full.Added), len(addedS))
		}
		if !equalSets(frontier.Added, addedS) {
			t.Errorf("load %v: DecodeParallelFrontierWithPool recovered %d keys, serial %d",
				load, len(frontier.Added), len(addedS))
		}
	}
}

// TestConcurrentDecodesSharedPool is the multi-tenant contract test: J
// concurrent decode jobs on ONE shared pool, each with its own table,
// must all recover their exact key sets. Run under -race this validates
// that the per-job recovery shards (indexed by pool worker IDs) never
// leak between jobs even though every job sees the full worker-ID range.
func TestConcurrentDecodesSharedPool(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	group := pool.NewGroup(0)
	const jobs = 8
	for j := 0; j < jobs; j++ {
		group.Go(func(p *parallel.Pool) error {
			keys := randomKeys(2000+100*j, uint64(1000+j))
			table := New(2*len(keys)+len(keys)/2, 3, uint64(50+j))
			table.InsertAllWithPool(keys, p)
			var res *ParallelResult
			if j%2 == 0 {
				res = table.DecodeParallelWithPool(p)
			} else {
				res = table.DecodeParallelFrontierWithPool(p)
			}
			if !res.Complete {
				return fmt.Errorf("job %d: decode incomplete", j)
			}
			if !equalSets(res.Added, keys) {
				return fmt.Errorf("job %d: recovered %d keys, want %d", j, len(res.Added), len(keys))
			}
			return nil
		})
	}
	if err := group.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestReconcileWithPool runs the full protocol on an explicit pool and
// checks it returns exactly the planted difference sets.
func TestReconcileWithPool(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	common := randomKeys(5000, 60)
	onlyA := randomKeys(120, 61)
	onlyB := randomKeys(110, 62)
	a := append(append([]uint64(nil), common...), onlyA...)
	b := append(append([]uint64(nil), common...), onlyB...)
	gotA, gotB, wire, err := ReconcileCtx(context.Background(), a, b, 7, 1.5, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSets(gotA, onlyA) || !equalSets(gotB, onlyB) {
		t.Errorf("reconciliation wrong: %d/%d local, %d/%d remote",
			len(gotA), len(onlyA), len(gotB), len(onlyB))
	}
	if wire <= 0 {
		t.Errorf("wire bytes %d", wire)
	}
}

// BenchmarkConcurrentDecode measures aggregate decode throughput of J
// concurrent tail-heavy jobs (small tables at load 0.75, where the
// O(log log n) subround tail is dispatch-dominated) under the two
// serving topologies the multi-tenant acceptance criterion compares:
// one shared pool of W workers vs J isolated pools of max(1, W/J)
// workers each (fixed total cores).
func BenchmarkConcurrentDecode(b *testing.B) {
	workers := parallel.Workers()
	if workers < 4 {
		workers = 4
	}
	const cells = 4096
	keys := randomKeys(int(0.75*float64(cells)), 9)
	master := New(cells, 3, 13)
	master.InsertAll(keys)
	keysPerOp := float64(len(keys))

	decodeJob := func(p *parallel.Pool, reps int) error {
		for i := 0; i < reps; i++ {
			if res := master.Clone().DecodeParallelFrontierWithPool(p); !res.Complete {
				return fmt.Errorf("decode failed")
			}
		}
		return nil
	}

	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("SharedPool/jobs=%d", jobs), func(b *testing.B) {
			pool := parallel.NewPool(workers)
			defer pool.Close()
			b.ResetTimer()
			group := pool.NewGroup(0)
			for j := 0; j < jobs; j++ {
				group.Go(func(p *parallel.Pool) error { return decodeJob(p, b.N/jobs+1) })
			}
			if err := group.Wait(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(keysPerOp, "keys/op")
		})
		b.Run(fmt.Sprintf("IsolatedPools/jobs=%d", jobs), func(b *testing.B) {
			per := workers / jobs
			if per < 1 {
				per = 1
			}
			pools := make([]*parallel.Pool, jobs)
			for j := range pools {
				pools[j] = parallel.NewPool(per)
				defer pools[j].Close()
			}
			b.ResetTimer()
			done := make(chan error, jobs)
			for j := 0; j < jobs; j++ {
				go func() { done <- decodeJob(pools[j], b.N/jobs+1) }()
			}
			for j := 0; j < jobs; j++ {
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(keysPerOp, "keys/op")
		})
	}
}
