// Package parallel provides the shared-memory parallelism substrate the
// peeling implementations run on: a persistent worker pool (Pool) with a
// submit/barrier API and a worker-ID-carrying parallel-for, an atomic
// bitset for claim/mark operations, and a sharded counter that avoids
// cache-line contention when many workers tally removals.
//
// The round-synchronous peelers call a parallel-for twice per round, and
// below the threshold most rounds have tiny frontiers — so per-call
// goroutine spawns would dominate exactly the O(log log n) tail the
// paper analyzes. The Pool keeps its workers alive across rounds: a
// batch costs channel handoffs to already-running goroutines, the
// calling goroutine does a share of the work itself, and the worker IDs
// the pool hands out let callers keep per-worker buffers (frontier
// shards, counters) that are merged at the round barrier instead of
// guarded by a mutex. The design mirrors what the paper's GPU
// implementation gets from CUDA — a flat iteration space chopped across
// persistent hardware threads, atomic test-and-set to claim cells — and
// what CPU peeling systems (GBBS-style bucketing structures) get from
// per-worker buffers.
//
// Default returns a lazily created process-wide pool (sized by
// SetDefaultWorkers), so code that does not care about pool management
// still benefits from persistent workers.
package parallel

import (
	"math/bits"
	"runtime"
	"sync/atomic"
)

// Workers returns the default degree of parallelism: GOMAXPROCS. Pools
// created with NewPool(0) and the default pool use this size.
func Workers() int { return runtime.GOMAXPROCS(0) }

// Bitset is a fixed-size set of bits supporting atomic operations. It is
// used to claim edges (each edge must be peeled exactly once even when
// several endpoints peel simultaneously) and to mark removed vertices.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a bitset holding n bits, all zero.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b *Bitset) Len() int { return b.n }

// Get reports whether bit i is set (non-atomic read; callers synchronize
// across rounds via the round barrier).
func (b *Bitset) Get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i non-atomically. Use only during single-threaded setup.
func (b *Bitset) Set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// AtomicSet sets bit i with a CAS loop, returning true if this call
// changed the bit from 0 to 1 (i.e. the caller "claimed" i) and false if
// it was already set. This is the exactly-once edge-removal primitive.
func (b *Bitset) AtomicSet(i int) bool {
	addr := &b.words[i>>6]
	mask := uint64(1) << (uint(i) & 63)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
	}
}

// Reset clears all bits (non-atomic; call between runs).
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of set bits (non-atomic; call at a barrier).
func (b *Bitset) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// XorUint64 XORs v into *p atomically with a CAS loop (sync/atomic has
// no XOR). It is the cell-update primitive shared by the IBLT insert and
// decode paths and the erasure encoder: XOR is commutative and
// associative, so concurrent updates to one cell serialize in any order.
func XorUint64(p *uint64, v uint64) {
	for {
		old := atomic.LoadUint64(p)
		if atomic.CompareAndSwapUint64(p, old, old^v) {
			return
		}
	}
}

// Counter is a sharded counter: concurrent Add calls land on per-shard
// cache lines, and Sum folds them at a barrier.
type Counter struct {
	shards []paddedInt64
}

type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte // pad to a cache line to avoid false sharing
}

// NewCounter returns a counter with one shard per default-pool worker.
// Pools of other sizes should use Pool.NewCounter so every worker ID
// gets its own shard.
func NewCounter() *Counter {
	return &Counter{shards: make([]paddedInt64, Workers())}
}

// Add adds delta to the shard identified by worker ID w, as reported by
// Pool.For. Worker IDs are dense in [0, workers), so distinct workers
// land on distinct shards (chunk offsets such as lo would alias: every
// multiple of the grain can collapse onto one shard). w is reduced mod
// the shard count as a safety net for mismatched pool sizes.
func (c *Counter) Add(w int, delta int64) {
	c.shards[w%len(c.shards)].v.Add(delta)
}

// Sum returns the total across shards.
func (c *Counter) Sum() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Reset zeroes all shards (non-atomic; call at a barrier).
func (c *Counter) Reset() {
	for i := range c.shards {
		c.shards[i].v.Store(0)
	}
}
