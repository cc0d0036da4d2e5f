package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/hypergraph"
)

// OrderedResult extends Result with the artifacts the data-structure
// constructions consume — the peel order and the edge → vertex
// orientation — produced by the round-synchronous parallel process
// instead of the sequential queue peel.
//
// PeelOrder is round-major: round 1's edges first, then round 2's, and
// so on, with each round's segment sorted by edge id at the round
// barrier. Together with the minimum-endpoint claim rule of
// ParallelOrder this makes the whole result bit-stable: a given graph
// and k produce identical PeelOrder, FreeVertex, and RoundOf at every
// worker count and on every run.
//
// Reverse round-major order is a valid elimination order for k = 2 with
// full parallelism inside a round: a peeled vertex has at most k-1 = 1
// live edge, so a round-t edge's non-free endpoints free no edge of
// round t themselves — they are either free vertices of strictly later
// rounds or never free anything. Processing rounds in reverse with any
// (even concurrent) order inside a round therefore only reads finalized
// values, which is what the parallel assignment sweeps in internal/mphf
// and internal/bloomier rely on. For k > 2 a vertex may keep up to k-1
// live edges, within-round dependencies can occur, and only the
// round-major grouping itself is guaranteed (ValidateEliminationOrder
// checks the k = 2 property explicitly).
type OrderedResult struct {
	Result

	// PeelOrder lists peeled edges round-major, each round's segment
	// sorted ascending by edge id.
	PeelOrder []uint32

	// FreeVertex[e] is the vertex that released edge e (NoVertex if e is
	// in the core): the minimum-id endpoint of e peeled in e's round.
	// Each vertex appears at most k-1 times.
	FreeVertex []uint32

	// RoundOf[e] is the 1-based round that peeled edge e; 0 for edges
	// left in the core.
	RoundOf []int32

	// RoundStart[t] is the end offset of round t's segment in PeelOrder
	// (RoundStart[0] == 0), so round t's edges are
	// PeelOrder[RoundStart[t-1]:RoundStart[t]]. len == Rounds+1.
	RoundStart []int
}

// RoundSegment returns the edges peeled in round t (1-based), sorted by
// edge id.
func (r *OrderedResult) RoundSegment(t int) []uint32 {
	return r.PeelOrder[r.RoundStart[t-1]:r.RoundStart[t]]
}

// ParallelOrder runs the round-synchronous peeling process of Parallel
// and additionally produces the peel order and edge orientation that
// Sequential used to be the only (serial) source of — the artifacts the
// MPHF and Bloomier builders consume. See OrderedResult for the
// determinism and elimination-order contracts: when several endpoints
// of an edge peel in the same round, the minimum vertex id frees it, so
// the orientation is identical at every worker count, and the Result
// fields (rounds, history, core) are identical to Parallel's.
//
// For k = 2 — every application in this repository — the peel runs on
// g.Edges alone through ParallelOrderEdgesCtx, which never reads the
// CSR index; opts.Scan is then ignored (the result does not depend on
// it). For k >= 3 a vertex can keep several live edges and the peel
// walks the CSR incidence lists: Phase B runs as two sub-phases per
// round. First every peel-set vertex claims its live edges with an
// atomic min on the FreeVertex slot; then each edge's unique winner
// settles it: marks it dead, tags its round, and decrements the other
// endpoints' degrees. (Rounds that would run inline anyway — 1-worker
// pools and grain-sized tail rounds — use a merged single pass
// instead.) PeelOrder is reconstructed after the last round with a
// counting sort over the round tags, which yields every segment
// already sorted by edge id — O(m) instead of per-round sorting.
func ParallelOrder(g *hypergraph.Hypergraph, k int, opts Options) *OrderedResult {
	res, _ := ParallelOrderCtx(context.Background(), g, k, opts)
	return res
}

// ParallelOrderCtx is ParallelOrder with cooperative cancellation,
// checked once at every round barrier like ParallelCtx: a canceled peel
// stops within one round of extra work and returns (nil, ctx.Err()),
// abandoning the partial state.
//
//peelvet:deterministic
func ParallelOrderCtx(ctx context.Context, g *hypergraph.Hypergraph, k int, opts Options) (*OrderedResult, error) {
	if k == 2 {
		return ParallelOrderEdgesCtx(ctx, g.N, g.R, g.Edges, opts)
	}
	return parallelOrderCSR(ctx, g, k, opts)
}

// parallelOrderCSR is the incidence-list ordered peel behind
// ParallelOrderCtx for k >= 3. It computes the same result as
// ParallelOrderEdgesCtx at k = 2, which the package tests check.
//
//peelvet:deterministic
func parallelOrderCSR(ctx context.Context, g *hypergraph.Hypergraph, k int, opts Options) (*OrderedResult, error) {
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

	res := &OrderedResult{
		FreeVertex: make([]uint32, g.M),
		RoundOf:    make([]int32, g.M),
	}
	for e := range res.FreeVertex {
		res.FreeVertex[e] = NoVertex
	}
	claim := res.FreeVertex // the claim array IS the orientation
	alive := g.N

	loop := newRoundLoop(s, g, pool, grain, opts.Scan)

	for round := 1; round <= maxRounds; round++ {
		// Round barrier cancellation check (one ctx.Err() per round).
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		peelSet := loop.collect()
		if len(peelSet) == 0 {
			break
		}
		epoch := uint32(round)
		// Phase B removes the peel set under the minimum-endpoint claim
		// rule: when several endpoints of an edge peel in the same round,
		// the smallest vertex id frees it — a scheduling-independent
		// tie-break, so the orientation is identical at every worker
		// count. Two executions implement the same rule:
		//
		//   - inline (1-worker pool, or a peel set that fits one grain —
		//     i.e. the serial build paths and the small-frontier tail
		//     rounds, where pool.For would run on the calling goroutine
		//     anyway): one merged pass over the peel set sorted
		//     ascending. First-come claiming in ascending vertex order
		//     IS the minimum rule — every peeling endpoint of an edge
		//     attempts it, and the smallest attempts first — and a
		//     single goroutine needs no atomics and no second pass.
		//
		//   - parallel: two sub-phases with a barrier between. B1 bids
		//     for every live incident edge with an atomic min; B2 lets
		//     each edge's unique winner settle it (the edead mark, round
		//     tag, and order-shard append are single-writer; only degree
		//     decrements and frontier tags stay atomic). Dead edges keep
		//     the orientation of the round that freed them — B1 skips
		//     them, and their claims can never equal a this-round vertex
		//     in B2. A vertex listed twice in one edge settles it once
		//     (the edead re-check).
		if pool.Workers() == 1 || len(peelSet) <= grain {
			slices.Sort(peelSet)
			localNext := loop.bufs.next[0]
			for _, v := range peelSet {
				for _, e := range g.VertexEdges(int(v)) {
					if s.edead[e] != 0 {
						continue
					}
					s.edead[e] = 1
					claim[e] = v
					res.RoundOf[e] = int32(round)
					for _, u := range g.EdgeVertices(int(e)) {
						if u == v {
							continue
						}
						s.deg[u]--
						if loop.scan == Frontier && s.deg[u] < s.k && loop.inFrontier[u] != epoch {
							loop.inFrontier[u] = epoch
							localNext = append(localNext, u)
						}
					}
				}
			}
			loop.bufs.next[0] = localNext
		} else {
			pool.For(len(peelSet), grain, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					v := peelSet[i]
					for _, e := range g.VertexEdges(int(v)) {
						if s.edead[e] == 0 {
							claimMin(&claim[e], v)
						}
					}
				}
			})
			pool.For(len(peelSet), grain, func(w, lo, hi int) {
				localNext := loop.bufs.next[w]
				for i := lo; i < hi; i++ {
					v := peelSet[i]
					for _, e := range g.VertexEdges(int(v)) {
						if claim[e] != v || s.edead[e] != 0 {
							continue
						}
						s.edead[e] = 1
						res.RoundOf[e] = int32(round)
						for _, u := range g.EdgeVertices(int(e)) {
							if u == v {
								continue
							}
							d := atomic.AddInt32(&s.deg[u], -1)
							if loop.scan == Frontier && d < s.k {
								if atomic.SwapUint32(&loop.inFrontier[u], epoch) != epoch {
									localNext = append(localNext, u)
								}
							}
						}
					}
				}
				loop.bufs.next[w] = localNext
			})
		}

		alive -= len(peelSet)
		res.Rounds = round
		res.SurvivorHistory = append(res.SurvivorHistory, alive)
		loop.advance()
	}

	res.sortPeelOrder()
	s.finish(&res.Result)
	return res, nil
}

// sortPeelOrder reconstructs the round-major order from the round tags
// with a counting sort over rounds: RoundStart is the prefix sum of the
// per-round histogram, and scattering edges in ascending id order
// leaves every round's segment already sorted — no per-round sort and
// no order shards in the round loop, the same stable-counting-sort
// trick as the CSR build in internal/hypergraph.
func (res *OrderedResult) sortPeelOrder() {
	counts := make([]int, res.Rounds+1)
	for _, t := range res.RoundOf {
		if t > 0 {
			counts[t]++
		}
	}
	res.RoundStart = make([]int, res.Rounds+1)
	for t := 1; t <= res.Rounds; t++ {
		res.RoundStart[t] = res.RoundStart[t-1] + counts[t]
	}
	cursors := append([]int(nil), res.RoundStart[:res.Rounds+1]...)
	res.PeelOrder = make([]uint32, res.RoundStart[res.Rounds])
	for e, t := range res.RoundOf {
		if t > 0 {
			res.PeelOrder[cursors[t-1]] = uint32(e)
			cursors[t-1]++
		}
	}
}

// claimMin lowers *addr to v if v is smaller, atomically — the
// deterministic tie-break for edges contended by several same-round
// peeling endpoints. NoVertex (max uint32) is the unclaimed value, so
// the first bid always lands.
func claimMin(addr *uint32, v uint32) {
	for {
		cur := atomic.LoadUint32(addr)
		if v >= cur {
			return
		}
		if atomic.CompareAndSwapUint32(addr, cur, v) {
			return
		}
	}
}

// ValidateEliminationOrder checks the contracts an OrderedResult must
// satisfy for the reverse round-major assignment sweeps to be sound:
//
//   - structural consistency: RoundStart brackets PeelOrder, each
//     segment is sorted by edge id, RoundOf matches the segment, every
//     peeled edge's free vertex is one of its endpoints, and no vertex
//     frees more than k-1 edges;
//   - the elimination property: every non-free endpoint of a round-t
//     edge that frees an edge at all frees it in a round strictly after
//     t (so processing rounds in reverse, with any order inside a
//     round, only reads finalized values).
//
// The elimination property is a theorem for k = 2 and checked here by
// construction for any input. Intended for tests and debugging; O(m·r).
func ValidateEliminationOrder(g *hypergraph.Hypergraph, ord *OrderedResult, k int) error {
	if len(ord.RoundStart) != ord.Rounds+1 || ord.RoundStart[0] != 0 ||
		ord.RoundStart[ord.Rounds] != len(ord.PeelOrder) {
		return fmt.Errorf("core: RoundStart %v inconsistent with %d rounds, %d peeled edges",
			ord.RoundStart, ord.Rounds, len(ord.PeelOrder))
	}
	if len(ord.PeelOrder)+ord.CoreEdges != g.M {
		return fmt.Errorf("core: %d peeled + %d core edges != m=%d", len(ord.PeelOrder), ord.CoreEdges, g.M)
	}
	freed := make([]int32, g.N)      // edges freed per vertex
	freedRound := make([]int32, g.N) // round in which the vertex freed (0: none)
	seen := make([]bool, g.M)
	for t := 1; t <= ord.Rounds; t++ {
		seg := ord.RoundSegment(t)
		for i, e := range seg {
			if i > 0 && seg[i-1] >= e {
				return fmt.Errorf("core: round %d segment not sorted at %d", t, i)
			}
			if seen[e] {
				return fmt.Errorf("core: edge %d peeled twice", e)
			}
			seen[e] = true
			if ord.RoundOf[e] != int32(t) {
				return fmt.Errorf("core: edge %d in round %d segment but RoundOf=%d", e, t, ord.RoundOf[e])
			}
			if ord.EdgeAlive[e] != 0 {
				return fmt.Errorf("core: peeled edge %d still alive", e)
			}
			v := ord.FreeVertex[e]
			if v == NoVertex {
				return fmt.Errorf("core: peeled edge %d has no free vertex", e)
			}
			endpoint := false
			for _, u := range g.EdgeVertices(int(e)) {
				if u == v {
					endpoint = true
				}
			}
			if !endpoint {
				return fmt.Errorf("core: free vertex %d not an endpoint of edge %d", v, e)
			}
			freed[v]++
			if freed[v] > int32(k-1) {
				return fmt.Errorf("core: vertex %d frees %d > k-1 edges", v, freed[v])
			}
			freedRound[v] = int32(t)
		}
	}
	for e := 0; e < g.M; e++ {
		if ord.RoundOf[e] == 0 {
			if ord.FreeVertex[e] != NoVertex {
				return fmt.Errorf("core: core edge %d has free vertex %d", e, ord.FreeVertex[e])
			}
			continue
		}
		for _, u := range g.EdgeVertices(e) {
			if u == ord.FreeVertex[e] {
				continue
			}
			if freedRound[u] != 0 && freedRound[u] <= ord.RoundOf[e] {
				return fmt.Errorf("core: edge %d (round %d) reads vertex %d finalized only in round %d",
					e, ord.RoundOf[e], u, freedRound[u])
			}
		}
	}
	return nil
}
