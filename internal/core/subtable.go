package core

import (
	"context"
	"sync/atomic"

	"repro/internal/hypergraph"
	"repro/internal/parallel"
)

// SubtablesCtx runs the Appendix B peeling variant on a partitioned
// hypergraph: each round consists of r subrounds, and subround j removes,
// in parallel, every subtable-j vertex whose degree is < k. Because each
// edge touches subtable j in exactly one vertex, no two threads in a
// subround can try to peel the same edge via the same subtable — the
// property the paper's GPU IBLT implementation relies on to avoid
// deleting an item twice.
//
// The returned Result counts productive subrounds (Result.Subrounds,
// Table 5's "Subrounds" column) and full rounds (Result.Rounds), and
// records the survivor count after every executed subround
// (Result.SurvivorHistory, Table 6's "Experiment" column).
//
// Cancellation is checked at every subround barrier (a finer grain than
// the full-round barrier of ParallelCtx, matching the subround
// structure). On cancellation it returns (nil, ctx.Err()). Panics if g
// is not partitioned (hypergraph.Partitioned) — the subround schedule
// is meaningless without subtables.
func SubtablesCtx(ctx context.Context, g *hypergraph.Hypergraph, k int, opts Options) (*Result, error) {
	if g.SubtableSize == 0 {
		panic("core: Subtables requires a partitioned hypergraph")
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
	r := g.R
	sub := g.SubtableSize

	res := &Result{}
	alive := g.N
	eclaim := parallel.NewBitset(g.M)

	// Per-subtable frontiers with epoch dedup, mirroring the ParallelCtx
	// peeler. frontiers[j] holds candidates from subtable j. Freed
	// candidates are collected per worker and per target subtable
	// (nextShards[w][j]) and merged into the frontiers at the subround
	// barrier; the shards are reused across subrounds.
	frontiers := make([][]uint32, r)
	inFrontier := make([]uint32, g.N)
	for v := 0; v < g.N; v++ {
		if s.deg[v] < s.k {
			j := v / sub
			frontiers[j] = append(frontiers[j], uint32(v))
		}
	}
	peelShards := make([][]uint32, pool.Workers())
	nextShards := make([][][]uint32, pool.Workers())
	for w := range nextShards {
		nextShards[w] = make([][]uint32, r)
	}

	var peelSet []uint32
	subroundIdx := 0
	lastProductive := 0
	for round := 1; round <= maxRounds; round++ {
		removedThisRound := 0
		for j := 0; j < r; j++ {
			// Subround barrier cancellation check.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			subroundIdx++
			epoch := uint32(subroundIdx)

			// Phase A: snapshot subtable j's peelable vertices. Marking
			// them dead here (single-threaded for Frontier) also
			// deduplicates: a vertex can enter the same frontier twice
			// under different epochs when its degree drops in two
			// different subrounds. FullScan re-examines subtable j's whole
			// vertex range — the GPU's one-thread-per-cell strategy.
			peelSet = peelSet[:0]
			switch opts.Scan {
			case Frontier:
				for _, v := range frontiers[j] {
					if s.vdead[v] == 0 && s.deg[v] < s.k {
						s.vdead[v] = 1
						peelSet = append(peelSet, v)
					}
				}
				frontiers[j] = frontiers[j][:0]
			case FullScan:
				base := j * sub
				pool.For(sub, grain, func(w, lo, hi int) {
					local := peelShards[w]
					for vi := lo; vi < hi; vi++ {
						v := uint32(base + vi)
						if s.vdead[v] == 0 && s.deg[v] < s.k {
							s.vdead[v] = 1
							local = append(local, v)
						}
					}
					peelShards[w] = local
				})
				peelSet = drain(peelSet, peelShards)
			}

			if len(peelSet) == 0 {
				res.SurvivorHistory = append(res.SurvivorHistory, alive)
				continue
			}

			// Phase B: peel them; freed vertices land in their own
			// subtable's next frontier (same-subtable vertices cannot be
			// freed by this subround — every edge meets subtable j once —
			// but cross-subtable ones can be peeled later this round,
			// which is why subrounds make faster progress than rounds).
			pool.For(len(peelSet), grain, func(w, lo, hi int) {
				local := nextShards[w]
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
							if opts.Scan == Frontier && d < s.k {
								if atomic.SwapUint32(&inFrontier[u], epoch) != epoch {
									uj := int(u) / sub
									local[uj] = append(local[uj], u)
								}
							}
						}
					}
				}
			})
			for jj := 0; jj < r; jj++ {
				for w := range nextShards {
					frontiers[jj] = append(frontiers[jj], nextShards[w][jj]...)
					nextShards[w][jj] = nextShards[w][jj][:0]
				}
			}

			alive -= len(peelSet)
			removedThisRound += len(peelSet)
			lastProductive = subroundIdx
			res.SurvivorHistory = append(res.SurvivorHistory, alive)
		}
		if removedThisRound == 0 {
			// A full silent round means the k-core is reached; drop its
			// r no-op subrounds from the history.
			res.SurvivorHistory = res.SurvivorHistory[:len(res.SurvivorHistory)-r]
			break
		}
		res.Rounds = round
	}
	res.Subrounds = lastProductive
	syncEdgeClaims(s.edead, eclaim, pool)
	return s.finish(res), nil
}
