package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 7, 100, 10000, 131071} {
			marks := make([]int32, n)
			p.For(n, 64, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&marks[i], 1)
				}
			})
			for i, m := range marks {
				if m != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, m)
				}
			}
		}
		p.Close()
	}
}

// TestPoolForGrainAllPaths checks the grain bound on every execution
// path: the inline 1-worker path, the inline small-n path, and the
// multi-worker dispatch path. The seed's For violated this on the inline
// paths by calling fn(0, n) in one piece.
func TestPoolForGrainAllPaths(t *testing.T) {
	cases := []struct {
		workers, n, grain int
	}{
		{1, 1000, 64},  // 1-worker pool, inline
		{4, 50, 64},    // n <= grain, inline
		{4, 1000, 64},  // dispatched
		{4, 1000, 999}, // dispatched, 2 chunks
	}
	for _, tc := range cases {
		p := NewPool(tc.workers)
		var covered atomic.Int64
		p.For(tc.n, tc.grain, func(w, lo, hi int) {
			if lo < 0 || hi > tc.n || lo >= hi {
				t.Errorf("workers=%d n=%d grain=%d: bad chunk [%d, %d)", tc.workers, tc.n, tc.grain, lo, hi)
			}
			if hi-lo > tc.grain {
				t.Errorf("workers=%d n=%d grain=%d: chunk [%d, %d) exceeds grain", tc.workers, tc.n, tc.grain, lo, hi)
			}
			covered.Add(int64(hi - lo))
		})
		if got := covered.Load(); got != int64(tc.n) {
			t.Errorf("workers=%d n=%d grain=%d: covered %d indices", tc.workers, tc.n, tc.grain, got)
		}
		p.Close()
	}
}

// TestPoolWorkerIDs checks the sharding contract: every reported ID is
// in [0, workers), and chunks with the same ID never run concurrently —
// the property that lets callers index per-worker buffers without
// atomics.
func TestPoolWorkerIDs(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	defer p.Close()
	busy := make([]atomic.Bool, workers)
	seen := make([]atomic.Int64, workers)
	for trial := 0; trial < 20; trial++ {
		p.For(4096, 64, func(w, lo, hi int) {
			if w < 0 || w >= workers {
				t.Errorf("worker ID %d out of [0, %d)", w, workers)
				return
			}
			if !busy[w].CompareAndSwap(false, true) {
				t.Errorf("two chunks ran concurrently under worker ID %d", w)
			}
			for i := 0; i < 50; i++ { // widen the overlap window
				seen[w].Add(1)
			}
			busy[w].Store(false)
		})
	}
	if seen[0].Load() == 0 {
		t.Error("caller (worker 0) did no work")
	}
}

// TestPoolRun checks the submit/barrier primitive: fn runs exactly once
// per worker, with distinct IDs, and Run blocks until all are done.
func TestPoolRun(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	defer p.Close()
	var calls [workers]atomic.Int64
	p.Run(func(w int) { calls[w].Add(1) })
	for w := range calls {
		if got := calls[w].Load(); got != 1 {
			t.Errorf("worker %d ran %d times, want 1", w, got)
		}
	}
}

// TestPoolRunRanges checks the static-partition contract: piece i
// always receives the i-th contiguous range, each piece runs exactly
// once, ranges tile [0, n) exactly, and empty ranges (n < pieces) are
// still invoked.
func TestPoolRunRanges(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, tc := range []struct{ n, pieces int }{
		{1, 4}, {3, 4}, {4, 4}, {1000, 4},
		{1000, 0}, // pieces <= 0 selects Workers()
		{1001, 7}, // pieces > workers: queued onto the same workers
		{1000, 1}, // single piece runs inline
		{5, 16},   // more pieces than items: empties still invoked
	} {
		pieces := tc.pieces
		if pieces <= 0 {
			pieces = p.Workers()
		}
		lows := make([]int, pieces)
		highs := make([]int, pieces)
		calls := make([]atomic.Int32, pieces)
		for i := range lows {
			lows[i], highs[i] = -1, -1
		}
		marks := make([]atomic.Int32, tc.n)
		p.RunRanges(tc.n, tc.pieces, func(i, lo, hi int) {
			calls[i].Add(1)
			lows[i], highs[i] = lo, hi
			for j := lo; j < hi; j++ {
				marks[j].Add(1)
			}
		})
		prev := 0
		for i := 0; i < pieces; i++ {
			if got := calls[i].Load(); got != 1 {
				t.Fatalf("n=%d pieces=%d: piece %d ran %d times", tc.n, tc.pieces, i, got)
			}
			if lows[i] != prev || highs[i] < lows[i] {
				t.Fatalf("n=%d pieces=%d piece %d: range [%d,%d), want start %d",
					tc.n, tc.pieces, i, lows[i], highs[i], prev)
			}
			prev = highs[i]
		}
		if prev != tc.n {
			t.Fatalf("n=%d pieces=%d: ranges end at %d", tc.n, tc.pieces, prev)
		}
		for j := range marks {
			if got := marks[j].Load(); got != 1 {
				t.Fatalf("n=%d pieces=%d: index %d visited %d times", tc.n, tc.pieces, j, got)
			}
		}
	}
}

// TestPoolConcurrentReuse hammers one pool from many goroutines; each
// caller must still see its own range covered exactly once. Run under
// -race this also proves batches from different callers don't trample
// each other's worker state.
func TestPoolConcurrentReuse(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var wg sync.WaitGroup
	for caller := 0; caller < 8; caller++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				marks := make([]int32, n)
				p.For(n, 32, func(w, lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&marks[i], 1)
					}
				})
				for i, m := range marks {
					if m != 1 {
						t.Errorf("n=%d: index %d visited %d times", n, i, m)
						return
					}
				}
			}
		}(500 + 100*caller)
	}
	wg.Wait()
}

func TestDefaultPoolAndSetWorkers(t *testing.T) {
	defer SetDefaultWorkers(0)
	SetDefaultWorkers(3)
	if got := Default().Workers(); got != 3 {
		t.Fatalf("Default().Workers() = %d after SetDefaultWorkers(3)", got)
	}
	var total atomic.Int64
	Default().For(1000, 64, func(_, lo, hi int) { total.Add(int64(hi - lo)) })
	if got := total.Load(); got != 1000 {
		t.Errorf("Default().For covered %d indices on resized pool", got)
	}
	SetDefaultWorkers(0)
	if got := Default().Workers(); got != Workers() {
		t.Errorf("Default().Workers() = %d after reset, want %d", got, Workers())
	}
}

// TestPoolDispatchRotates checks the multi-tenant dispatch fix: small
// batches that wake only a few helpers must not all land on the same
// low-numbered channels. Sequential single-helper submissions rotate the
// start offset, so over workers-1 submissions more than one distinct
// helper ID must appear (before the fix every such batch woke helper 1).
func TestPoolDispatchRotates(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	defer p.Close()
	seen := make(map[int]bool)
	// dispatch(1, fn) offers a batch to exactly one helper, which
	// reports its own fixed worker ID; with a rotating start offset,
	// consecutive single-helper batches land on different channels.
	// Waiting for each delivery keeps the queues empty so no offer is
	// dropped.
	for call := 0; call < 3*(workers-1); call++ {
		got := make(chan int, 1)
		p.dispatch(1, func(w int) { got <- w })
		seen[<-got] = true
	}
	if len(seen) < 2 {
		t.Errorf("single-helper batches woke only helpers %v; want rotation across channels", seen)
	}
}

// TestPoolConcurrentJobShards models the multi-tenant sharding contract:
// J concurrent jobs share one pool, each keeping its own per-worker
// buffers indexed by the worker IDs its For calls report. Within one For
// call chunks with the same ID never run concurrently, and distinct jobs
// use distinct buffers, so under -race this proves per-job worker-ID
// sharding needs no locks even with many submitters.
func TestPoolConcurrentJobShards(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	defer p.Close()
	var wg sync.WaitGroup
	for job := 0; job < 8; job++ {
		wg.Add(1)
		go func(job int) {
			defer wg.Done()
			n := 400 + 50*job
			shards := make([][]int, workers) // private to this job
			for rep := 0; rep < 10; rep++ {
				for w := range shards {
					shards[w] = shards[w][:0]
				}
				p.For(n, 32, func(w, lo, hi int) {
					local := shards[w] // no atomics: per-job, per-worker
					for i := lo; i < hi; i++ {
						local = append(local, i)
					}
					shards[w] = local
				})
				total := 0
				for w := range shards {
					total += len(shards[w])
				}
				if total != n {
					t.Errorf("job %d: shards hold %d indices, want %d", job, total, n)
					return
				}
			}
		}(job)
	}
	wg.Wait()
}

// BenchmarkConcurrentFor measures aggregate throughput of J goroutines
// concurrently submitting small (tail-round-sized) For batches to one
// shared pool — the multi-tenant regime where the old dispatch piled
// every submitter onto chans[0..k].
func BenchmarkConcurrentFor(b *testing.B) {
	workers := Workers()
	if workers < 4 {
		workers = 4
	}
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			p := NewPool(workers)
			defer p.Close()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for j := 0; j < jobs; j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var sink atomic.Int64
					for i := 0; i < b.N/jobs+1; i++ {
						p.For(256, 64, func(w, lo, hi int) {
							var s int64
							for k := lo; k < hi; k++ {
								s += int64(k)
							}
							sink.Add(s)
						})
					}
				}()
			}
			wg.Wait()
		})
	}
}

// spawnFor is the seed's pre-pool For: a goroutine spawn plus WaitGroup
// handshake on every call. Kept here as the baseline for the pool
// benchmarks.
func spawnFor(n, grain int, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = n/(workers*4) + 1
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	nChunks := (n + grain - 1) / grain
	if workers > nChunks {
		workers = nChunks
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				start := int(cursor.Add(int64(grain))) - grain
				if start >= n {
					return
				}
				end := start + grain
				if end > n {
					end = n
				}
				fn(start, end)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkDispatch compares per-round dispatch overhead of the
// persistent pool against per-call goroutine spawning, at the frontier
// sizes that dominate a peel: Tail models the O(log log n) small-frontier
// rounds the paper analyzes (a few hundred vertices), Mid an early round.
func BenchmarkDispatch(b *testing.B) {
	sizes := []struct {
		name     string
		n, grain int
	}{
		{"Tail256", 256, 64},
		{"Mid16k", 16 << 10, 2048},
		{"Full1M", 1 << 20, 2048},
	}
	workers := Workers()
	if workers < 2 {
		workers = 4 // exercise real dispatch even on 1-CPU machines
	}
	work := func(lo, hi int) int64 {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		return s
	}
	for _, sz := range sizes {
		b.Run("Pool/"+sz.name, func(b *testing.B) {
			p := NewPool(workers)
			defer p.Close()
			var sink atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.For(sz.n, sz.grain, func(w, lo, hi int) { sink.Add(work(lo, hi)) })
			}
		})
		b.Run("Spawn/"+sz.name, func(b *testing.B) {
			var sink atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spawnFor(sz.n, sz.grain, workers, func(lo, hi int) { sink.Add(work(lo, hi)) })
			}
		})
	}
}
