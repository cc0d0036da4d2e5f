package core

import (
	"context"
	"math"
	"sync/atomic"

	"repro/internal/hypergraph"
)

// ParallelOrderEdgesCtx is the k = 2 ordered peel of ParallelOrderCtx
// run directly on a flat r-uniform edge list — edge e's vertices are
// edges[e*r : e*r+r], vertex ids below n — with no CSR incidence index.
// It returns exactly the OrderedResult ParallelOrderCtx returns for
// hypergraph.FromEdges(n, r, edges, 0) at k = 2, at every worker count.
//
// The kernel is the paper's GPU IBLT trick applied to the MPHF and
// Bloomier hypergraphs: a vertex never walks an incidence list, because
// when it has one live edge it can name that edge. Each vertex keeps one
// word: the low 32 bits hold its live degree, the high 32 bits the sum,
// mod 2^32, of its live edges' ids (a vertex listed twice in an edge
// counts twice in both). A vertex of degree 1 therefore reads its only
// live edge from its own word. Removing edge e from an endpoint is one
// atomic add of -(e<<32 | 1) — the same number of atomics as a plain
// degree decrement.
//
// Phase A needs no scan either. A vertex whose degree falls below 2
// passes through degree exactly 1, and exactly one decrement observes
// that; the decrementing worker appends it to the next round's peel set.
// No decrement takes a peeled vertex to degree 1: it has at most one
// live edge left, which it frees itself (its word is never touched
// again) or loses in its own round (1 → 0). So the collected set is
// exactly ParallelCtx's peel set, with no dedup marks and no dead flags.
// Phase B keeps the two sub-phases of the CSR peel: every degree-1
// vertex of the peel set bids for its edge with claimMin, then the
// winner settles the edge (round tag, then the atomic add on every
// other endpoint). 1-worker pools and peel sets within one grain run
// both passes on the calling goroutine (pool.For's serial path).
//
// opts.Scan is ignored. ctx is checked before the first round and at
// every round barrier. It panics if r is outside [2, hypergraph.MaxArity],
// if len(edges) is not a multiple of r, or if the list has 2^32 or more
// entries (edge ids and degrees are 32-bit).
//
//peelvet:deterministic
func ParallelOrderEdgesCtx(ctx context.Context, n, r int, edges []uint32, opts Options) (*OrderedResult, error) {
	if r < 2 || r > hypergraph.MaxArity {
		panic("core: edge arity outside [2, hypergraph.MaxArity]")
	}
	if len(edges)%r != 0 {
		panic("core: edge list length not a multiple of r")
	}
	if uint64(len(edges)) > math.MaxUint32 {
		panic("core: edge list too long for 32-bit edge ids and degrees")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := len(edges) / r
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = Deadline
	}
	grain := opts.Grain
	if grain <= 0 {
		grain = 2048
	}
	pool := opts.pool()

	res := &OrderedResult{
		FreeVertex: make([]uint32, m),
		RoundOf:    make([]int32, m),
	}
	claim := res.FreeVertex // the claim array IS the orientation
	for e := range claim {
		claim[e] = NoVertex
	}

	// word[v] = (sum of live edge ids) << 32 | live degree. Built
	// serially: a sharded build needs an atomic add per incidence, and
	// that measured slower than this pass (2-core Xeon, 2^17 keys).
	word := make([]uint64, n)
	for e := 0; e < m; e++ {
		inc := uint64(e)<<32 | 1
		for _, u := range edges[e*r : e*r+r] {
			word[u] += inc
		}
	}

	// Round 1's peel set: every vertex of degree below 2. Shard drain
	// order may shuffle it across worker counts; Phase B treats the peel
	// set as a set.
	bufs := newRoundBuffers(pool.Workers())
	pool.For(n, grain, func(w, lo, hi int) {
		local := bufs.next[w]
		for v := lo; v < hi; v++ {
			if uint32(word[v]) < 2 {
				local = append(local, uint32(v))
			}
		}
		bufs.next[w] = local
	})
	peelSet := drain(nil, bufs.next)

	alive := n
	for round := 1; round <= maxRounds; round++ {
		// Round barrier cancellation check (one ctx.Err() per round).
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(peelSet) == 0 {
			break
		}
		// A peel-set vertex of degree 0 has nothing to free: it never had
		// an edge, or a smaller same-round endpoint took its only one.
		// A loser reads degree 0 in the settle pass, or degree 1 with an
		// edge whose claim is not its own.
		//
		// B1: bid for the edge. No word changes until B2, so the plain
		// reads see the round-start state.
		pool.For(len(peelSet), grain, func(_, lo, hi int) {
			for _, v := range peelSet[lo:hi] {
				if wv := word[v]; uint32(wv) == 1 {
					claimMin(&claim[wv>>32], v)
				}
			}
		})
		// B2: the winner settles. A loser's word may be under a
		// concurrent settle of its edge, hence the atomic load.
		pool.For(len(peelSet), grain, func(w, lo, hi int) {
			next := bufs.next[w]
			for _, v := range peelSet[lo:hi] {
				wv := atomic.LoadUint64(&word[v])
				e := uint32(wv >> 32)
				if uint32(wv) != 1 || claim[e] != v {
					continue
				}
				res.RoundOf[e] = int32(round)
				dec := uint64(e)<<32 | 1
				for _, u := range edges[int(e)*r : int(e)*r+r] {
					if u == v {
						continue
					}
					if uint32(atomic.AddUint64(&word[u], -dec)) == 1 {
						next = append(next, u)
					}
				}
			}
			bufs.next[w] = next
		})

		alive -= len(peelSet)
		res.Rounds = round
		res.SurvivorHistory = append(res.SurvivorHistory, alive)
		peelSet = drain(peelSet[:0], bufs.next)
	}

	// A vertex survives iff it was never peeled: its degree is still at
	// least 2, or MaxRounds cut the peel before its round came.
	res.VertexAlive = make([]uint8, n)
	for v, wv := range word {
		if uint32(wv) >= 2 {
			res.VertexAlive[v] = 1
		}
	}
	for _, v := range peelSet {
		res.VertexAlive[v] = 1
	}
	res.CoreVertices = alive
	res.EdgeAlive = make([]uint8, m)
	for e, t := range res.RoundOf {
		if t == 0 {
			res.EdgeAlive[e] = 1
			res.CoreEdges++
		}
	}
	res.sortPeelOrder()
	return res, nil
}
