package core

import (
	"context"
	"sync/atomic"

	"repro/internal/hypergraph"
	"repro/internal/parallel"
)

// ScanPolicy selects how the parallel peeler finds each round's peelable
// vertices.
type ScanPolicy int

const (
	// Frontier tracks only vertices whose degree changed, so total work is
	// proportional to the graph size rather than n × rounds. This is the
	// default and matches the work bound of the sequential algorithm.
	Frontier ScanPolicy = iota

	// FullScan re-examines every alive vertex each round — exactly the
	// "one thread per cell per round" strategy of the paper's GPU
	// implementation, where a scan is a single coalesced kernel. On CPUs
	// it wastes work once the frontier is small; the ablation benchmark
	// quantifies the difference.
	FullScan
)

// Options configure the Parallel peeler.
type Options struct {
	Scan      ScanPolicy
	MaxRounds int // 0 means Deadline
	Grain     int // parallel-for grain; 0 selects a default

	// Pool runs the peel on an explicit persistent pool, amortizing
	// worker startup across many runs; nil selects the process-wide
	// default pool (parallel.Default / parallel.SetDefaultWorkers).
	Pool *parallel.Pool
}

// pool resolves the worker pool a run with these Options executes on.
func (o Options) pool() *parallel.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return parallel.Default()
}

// roundBuffers holds the per-worker append shards a peel reuses across
// rounds. Worker w appends only to index w (the pool guarantees chunks
// with the same worker ID never run concurrently), and the merge at the
// round barrier drains every shard — so frontier and peel-set collection
// need neither mutexes nor per-chunk allocations.
type roundBuffers struct {
	peel [][]uint32 // Phase A shards (FullScan candidate collection)
	next [][]uint32 // Phase B shards (next-frontier candidates)
}

func newRoundBuffers(workers int) *roundBuffers {
	return &roundBuffers{
		peel: make([][]uint32, workers),
		next: make([][]uint32, workers),
	}
}

// drain appends every shard of shards to dst and resets the shards,
// retaining their capacity for the next round.
func drain(dst []uint32, shards [][]uint32) []uint32 {
	for w := range shards {
		dst = append(dst, shards[w]...)
		shards[w] = shards[w][:0]
	}
	return dst
}

// roundLoop is the Phase A machinery shared by the round-synchronous
// peelers (ParallelCtx and ParallelOrderCtx): frontier seeding, the
// per-round peel-set collection, and the frontier swap at the round
// barrier. Phase B — how a round's edges are claimed and removed —
// differs per peeler and stays in each one's round loop; the Phase B
// code appends next-frontier candidates to bufs.next and tags them in
// inFrontier with the round epoch, exactly once per round.
type roundLoop struct {
	s     *coreState
	g     *hypergraph.Hypergraph
	pool  *parallel.Pool
	grain int
	scan  ScanPolicy
	bufs  *roundBuffers

	frontier   []uint32
	inFrontier []uint32 // epoch tags double as dedup marks
	peelSet    []uint32
}

// newRoundLoop allocates the shared per-run state and, for the frontier
// policy, seeds the round-1 frontier with a parallel degree scan into
// the per-worker shards (the O(n) sequential scan would otherwise be a
// serial pass before round 1). Shard drain order may shuffle the
// frontier across worker counts, but collect treats the frontier as a
// set — results are unaffected.
func newRoundLoop(s *coreState, g *hypergraph.Hypergraph, pool *parallel.Pool, grain int, scan ScanPolicy) *roundLoop {
	l := &roundLoop{
		s: s, g: g, pool: pool, grain: grain, scan: scan,
		bufs: newRoundBuffers(pool.Workers()),
	}
	if scan == Frontier {
		l.inFrontier = make([]uint32, g.N)
		pool.For(g.N, grain, func(w, lo, hi int) {
			local := l.bufs.next[w]
			for v := lo; v < hi; v++ {
				if s.deg[v] < s.k {
					local = append(local, uint32(v))
				}
			}
			l.bufs.next[w] = local
		})
		l.frontier = drain(make([]uint32, 0, g.N), l.bufs.next)
	}
	return l
}

// collect runs Phase A: it gathers this round's peel set, marking its
// vertices dead as they are collected, sharded over the pool. Each
// vertex is visited exactly once — frontier entries are distinct within
// a round (epoch-deduplicated by Phase B) and the full scan partitions
// the vertex range — so the vdead marks are disjoint byte stores, and
// the deg/vdead reads see the previous round's values across the round
// barrier. Small frontiers (≤ grain) run inline on the submitter, so
// the tail rounds pay no dispatch for the filter.
func (l *roundLoop) collect() []uint32 {
	l.peelSet = l.peelSet[:0]
	var domain []uint32 // nil means scan the full vertex range
	n := l.g.N
	if l.scan == Frontier {
		domain = l.frontier
		n = len(l.frontier)
		if n <= l.grain {
			// Tail rounds: a frontier within one grain would run inline
			// anyway; filtering it directly skips the closure and the
			// shard drain, so small rounds cost exactly what the serial
			// Phase A did.
			for _, v := range domain {
				if l.s.vdead[v] == 0 && l.s.deg[v] < l.s.k {
					l.s.vdead[v] = 1
					l.peelSet = append(l.peelSet, v)
				}
			}
			return l.peelSet
		}
	}
	l.pool.For(n, l.grain, func(w, lo, hi int) {
		local := l.bufs.peel[w]
		for i := lo; i < hi; i++ {
			v := uint32(i)
			if domain != nil {
				v = domain[i]
			}
			if l.s.vdead[v] == 0 && l.s.deg[v] < l.s.k {
				l.s.vdead[v] = 1
				local = append(local, v)
			}
		}
		l.bufs.peel[w] = local
	})
	l.peelSet = drain(l.peelSet, l.bufs.peel)
	return l.peelSet
}

// advance merges the Phase B next-frontier shards into the frontier at
// the round barrier. A no-op under FullScan.
func (l *roundLoop) advance() {
	if l.scan == Frontier {
		l.frontier = drain(l.frontier[:0], l.bufs.next)
	}
}

// Parallel runs the round-synchronous peeling process of the paper on g:
// in each round, every vertex with degree < k is removed together with
// its incident edges, all in parallel. The returned Result carries the
// per-round survivor counts (Table 2's "Experiment" column) and the
// number of productive rounds (Table 1's "Rounds" column).
//
// The implementation is a two-phase barrier algorithm. Phase A snapshots
// the set of vertices with degree < k (so this round's removals cannot
// influence this round's decisions — the exact process analyzed in
// Section 3). Phase B removes those vertices: each incident edge is
// claimed with an atomic flag so it is removed exactly once even when
// several of its endpoints peel in the same round, and the degrees of the
// other endpoints are decremented atomically.
//
// Both phases run on a persistent worker pool (see Options) and both
// are sharded over it — Phase A filters the frontier in parallel chunks
// (inline when the frontier fits one grain, so tail rounds pay no
// dispatch), and each worker accumulates candidates in its own shard,
// merged at the round barrier — there is no locking anywhere in the
// round loop, and the shards are reused across rounds, which matters in
// the small-frontier tail where a round does little work.
func Parallel(g *hypergraph.Hypergraph, k int, opts Options) *Result {
	res, _ := ParallelCtx(context.Background(), g, k, opts)
	return res
}

// ParallelCtx is Parallel with cooperative cancellation: the context is
// checked at every round barrier, so a canceled peel stops within one
// round of extra work — the O(log log n) round structure is what makes
// this cheap (a single check per barrier, no polling inside the phases).
// On cancellation it returns (nil, ctx.Err()); the partially peeled
// state is abandoned. A context that can never be canceled adds no
// per-round cost beyond a nil check.
func ParallelCtx(ctx context.Context, g *hypergraph.Hypergraph, k int, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := newCoreState(g, k)
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = Deadline
	}
	grain := opts.Grain
	if grain <= 0 {
		grain = 2048
	}
	pool := opts.pool()

	res := &Result{}
	alive := g.N

	// Edges are claimed through an atomic bitset (sync/atomic has no byte
	// CAS); the byte array in coreState is synchronized from it at the end
	// so that finish() and CoreDegreesValid see the usual representation.
	eclaim := parallel.NewBitset(g.M)

	loop := newRoundLoop(s, g, pool, grain, opts.Scan)

	for round := 1; round <= maxRounds; round++ {
		// Round barrier cancellation check: jobs abandoned mid-peel stop
		// here before starting another round of work.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Phase A: collect this round's peel set (see roundLoop.collect).
		peelSet := loop.collect()
		if len(peelSet) == 0 {
			break
		}

		// Phase B: remove the peel set. Vertices in the set are distinct,
		// so marking vdead needs no atomics (byte stores to distinct
		// addresses); edge claims and degree decrements do.
		epoch := uint32(round)
		pool.For(len(peelSet), grain, func(w, lo, hi int) {
			local := loop.bufs.next[w]
			for i := lo; i < hi; i++ {
				v := peelSet[i] // already marked dead in Phase A
				for _, e := range g.VertexEdges(int(v)) {
					if !eclaim.AtomicSet(int(e)) {
						continue
					}
					for _, u := range g.EdgeVertices(int(e)) {
						if u == v {
							continue
						}
						d := atomic.AddInt32(&s.deg[u], -1)
						// Tag u for the next frontier exactly once per
						// round. Vertices that died this round may be
						// tagged too (reading vdead here would race with
						// a concurrent peel of u); Phase A filters them.
						if opts.Scan == Frontier && d < s.k {
							if atomic.SwapUint32(&loop.inFrontier[u], epoch) != epoch {
								local = append(local, u)
							}
						}
					}
				}
			}
			loop.bufs.next[w] = local
		})

		alive -= len(peelSet)
		res.Rounds = round
		res.SurvivorHistory = append(res.SurvivorHistory, alive)
		loop.advance()
	}
	syncEdgeClaims(s.edead, eclaim, pool)
	return s.finish(res), nil
}

// syncEdgeClaims copies the atomic claim bitset into the byte-per-edge
// representation shared with the sequential peeler.
func syncEdgeClaims(edead []uint8, claims *parallel.Bitset, pool *parallel.Pool) {
	pool.For(len(edead), 1<<14, func(w, lo, hi int) {
		for e := lo; e < hi; e++ {
			if claims.Get(e) {
				edead[e] = 1
			}
		}
	})
}
