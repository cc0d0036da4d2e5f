package core

import (
	"context"
	"sync/atomic"

	"repro/internal/hypergraph"
	"repro/internal/parallel"
)

// Orientation is the layered edge → vertex assignment produced by
// SubtablesOriented: FreeVertex[e] is the vertex whose peeling released
// edge e, and Layers groups edge ids by the subround that released them,
// in execution order.
//
// The subtable structure makes this safe to build in parallel and safe
// to consume in parallel:
//
//   - Within a subround, only subtable-j vertices peel, and an edge has
//     exactly one subtable-j vertex — so no two vertices ever contend
//     for an edge, and the orientation is deterministic.
//   - If edge e is released in layer L, every endpoint other than its
//     free vertex is peeled in a layer strictly after L (had it been
//     peeled earlier it would have released e first). Hence processing
//     layers in reverse order, with arbitrary parallelism inside a
//     layer, respects all value dependencies — the property the
//     parallel constructions in internal/bloomier rely on.
type Orientation struct {
	FreeVertex []uint32   // NoVertex for edges left in the core
	Layers     [][]uint32 // edge ids per productive subround
}

// SubtablesOriented peels a partitioned hypergraph with the Appendix B
// subround process and additionally returns the layered orientation.
// The Result matches Subtables exactly (same rounds, subrounds, history,
// core).
func SubtablesOriented(g *hypergraph.Hypergraph, k int, opts Options) (*Result, *Orientation) {
	res, orient, _ := SubtablesOrientedCtx(context.Background(), g, k, opts)
	return res, orient
}

// SubtablesOrientedCtx is SubtablesOriented with cooperative
// cancellation, checked at every subround barrier. On cancellation it
// returns (nil, nil, ctx.Err()). Panics if g is not partitioned, as in
// SubtablesCtx.
func SubtablesOrientedCtx(ctx context.Context, g *hypergraph.Hypergraph, k int, opts Options) (*Result, *Orientation, error) {
	if g.SubtableSize == 0 {
		panic("core: SubtablesOriented requires a partitioned hypergraph")
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
	orient := &Orientation{FreeVertex: make([]uint32, g.M)}
	for e := range orient.FreeVertex {
		orient.FreeVertex[e] = NoVertex
	}
	alive := g.N
	eclaim := parallel.NewBitset(g.M)

	frontiers := make([][]uint32, r)
	inFrontier := make([]uint32, g.N)
	for v := 0; v < g.N; v++ {
		if s.deg[v] < s.k {
			frontiers[v/sub] = append(frontiers[v/sub], uint32(v))
		}
	}
	// Per-worker shards, reused across subrounds: nextShards[w][j] holds
	// worker w's freed candidates for subtable j, layerShards[w] the edge
	// ids worker w released this subround. Both are merged at the
	// subround barrier — no locking in the loop.
	nextShards := make([][][]uint32, pool.Workers())
	for w := range nextShards {
		nextShards[w] = make([][]uint32, r)
	}
	layerShards := make([][]uint32, pool.Workers())

	var peelSet []uint32
	subroundIdx := 0
	lastProductive := 0
	for round := 1; round <= maxRounds; round++ {
		removedThisRound := 0
		for j := 0; j < r; j++ {
			// Subround barrier cancellation check.
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			subroundIdx++
			epoch := uint32(subroundIdx)

			peelSet = peelSet[:0]
			for _, v := range frontiers[j] {
				if s.vdead[v] == 0 && s.deg[v] < s.k {
					s.vdead[v] = 1
					peelSet = append(peelSet, v)
				}
			}
			frontiers[j] = frontiers[j][:0]
			if len(peelSet) == 0 {
				res.SurvivorHistory = append(res.SurvivorHistory, alive)
				continue
			}

			pool.For(len(peelSet), grain, func(w, lo, hi int) {
				local := nextShards[w]
				localLayer := layerShards[w]
				for i := lo; i < hi; i++ {
					v := peelSet[i]
					for _, e := range g.VertexEdges(int(v)) {
						// Within this subround, v is the unique
						// subtable-j endpoint of e, so the claim never
						// contends with another peeling vertex; the
						// atomic set only filters edges already released
						// in earlier subrounds.
						if !eclaim.AtomicSet(int(e)) {
							continue
						}
						orient.FreeVertex[e] = v
						localLayer = append(localLayer, e)
						for _, u := range g.EdgeVertices(int(e)) {
							if u == v {
								continue
							}
							d := atomic.AddInt32(&s.deg[u], -1)
							if d < s.k {
								if atomic.SwapUint32(&inFrontier[u], epoch) != epoch {
									local[int(u)/sub] = append(local[int(u)/sub], u)
								}
							}
						}
					}
				}
				layerShards[w] = localLayer
			})
			for jj := 0; jj < r; jj++ {
				for w := range nextShards {
					frontiers[jj] = append(frontiers[jj], nextShards[w][jj]...)
					nextShards[w][jj] = nextShards[w][jj][:0]
				}
			}
			layer := drain(nil, layerShards)
			if len(layer) > 0 {
				orient.Layers = append(orient.Layers, layer)
			}

			alive -= len(peelSet)
			removedThisRound += len(peelSet)
			lastProductive = subroundIdx
			res.SurvivorHistory = append(res.SurvivorHistory, alive)
		}
		if removedThisRound == 0 {
			res.SurvivorHistory = res.SurvivorHistory[:len(res.SurvivorHistory)-r]
			break
		}
		res.Rounds = round
	}
	res.Subrounds = lastProductive
	syncEdgeClaims(s.edead, eclaim, pool)
	return s.finish(res), orient, nil
}

// ValidateOrientation checks the structural guarantees of an Orientation
// against its graph: every released edge's free vertex is one of its
// endpoints, no vertex frees more than k-1 edges, and every non-free
// endpoint of a layer-L edge is the free vertex only of strictly later
// layers (the reverse-processing dependency). Returns false on any
// violation. Intended for tests and debugging; O(m·r).
func ValidateOrientation(g *hypergraph.Hypergraph, o *Orientation, k int) bool {
	freed := make(map[uint32]int)
	layerOf := make([]int, g.M)
	for i := range layerOf {
		layerOf[i] = -1
	}
	for li, layer := range o.Layers {
		for _, e := range layer {
			if layerOf[e] != -1 {
				return false // edge in two layers
			}
			layerOf[e] = li
		}
	}
	vertexLayer := make(map[uint32]int)
	for li, layer := range o.Layers {
		for _, e := range layer {
			v := o.FreeVertex[e]
			if v == NoVertex {
				return false
			}
			found := false
			for _, u := range g.EdgeVertices(int(e)) {
				if u == v {
					found = true
				}
			}
			if !found {
				return false
			}
			freed[v]++
			if freed[v] > k-1 {
				return false
			}
			if prev, ok := vertexLayer[v]; ok && prev != li {
				return false // a vertex frees edges in one subround only
			}
			vertexLayer[v] = li
		}
	}
	// Dependency direction: non-free endpoints must not be free vertices
	// of the same or earlier layers.
	for li, layer := range o.Layers {
		for _, e := range layer {
			for _, u := range g.EdgeVertices(int(e)) {
				if u == o.FreeVertex[e] {
					continue
				}
				if ul, ok := vertexLayer[u]; ok && ul <= li {
					return false
				}
			}
		}
	}
	return true
}
