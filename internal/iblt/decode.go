package iblt

import (
	"context"
	"sync/atomic"

	"repro/internal/parallel"
)

// ParallelResult reports a parallel decode.
type ParallelResult struct {
	Added     []uint64
	Removed   []uint64
	Rounds    int  // full rounds executed that recovered at least one key
	Subrounds int  // productive subrounds (last subround that recovered a key)
	Complete  bool // table fully decoded
}

// DecodeParallelCtx peels the table with the paper's GPU recovery
// algorithm on pool: rounds of r serial subrounds, each subround
// scanning all of one subtable's cells in parallel and deleting
// recovered keys from all subtables with atomic updates. Within a
// subround each key occupies exactly one cell of the scanned subtable,
// so it can be recovered at most once; concurrent deletions into the
// same cell are serialized by the atomics, and a cell whose fields are
// read while racing a deletion fails its checksum and is simply retried
// in the next round (the per-round progress guarantee makes that retry
// sound: a raced deletion implies the round recovered something, so
// another round follows).
//
// Cancellation is checked at every subround barrier (the same barrier
// the paper's round analysis counts, so a canceled decode does less
// than one subround of extra work). On cancellation it returns
// (nil, ctx.Err()); the partially decoded table must be discarded. A
// decode stops after Cells() recoveries and reports Complete = false,
// for the reason given on Decode. All working state is owned by the
// call, so many decodes may run concurrently on one shared pool (e.g.
// as parallel.Group jobs).
func (t *Table) DecodeParallelCtx(ctx context.Context, pool *parallel.Pool) (*ParallelResult, error) {
	return t.decodeSubrounds(ctx, pool, false)
}

// DecodeParallelFrontierCtx is the work-efficient variant of
// DecodeParallelCtx: instead of rescanning every cell in every subround
// (the paper's GPU strategy, whose above-threshold cost the paper itself
// points out), it scans the table once and then examines only
// *candidate* cells — cells touched by a deletion since they were last
// examined. Total work becomes proportional to table size plus peeling
// work, like the serial decoder, while the subround structure (and its
// exactly-once guarantee) is unchanged.
//
// This is an engineering extension beyond the paper: it is to
// DecodeParallelCtx what the core package's Frontier scan policy is to
// its FullScan policy. Results (recovered set, completeness) are
// identical; only the work profile differs. With more than one worker,
// round and subround counts can differ from DecodeParallelCtx because a
// candidate examined mid-round reflects deletions from the current
// subround rather than only earlier rounds — peeling confluence makes
// that harmless. Cancellation, the recovery cap and concurrency are as
// for DecodeParallelCtx.
func (t *Table) DecodeParallelFrontierCtx(ctx context.Context, pool *parallel.Pool) (*ParallelResult, error) {
	return t.decodeSubrounds(ctx, pool, true)
}

// decodeSubrounds is the one subround loop behind both parallel
// decoders. Subround j examines all of subtable j, or with frontier set
// only its candidate list; deletions then re-enlist the cells they
// touch, so each is examined again in its own subtable's next subround.
// The loop ends after a round that recovers nothing.
func (t *Table) decodeSubrounds(ctx context.Context, pool *parallel.Pool, frontier bool) (*ParallelResult, error) {
	res := &ParallelResult{}
	workers := pool.Workers()

	// Per-worker shards, reused across subrounds: worker w appends
	// recovered keys only to index w (the pool serializes same-ID chunks
	// within a call), and relist[w][j] collects the cells worker w
	// re-enlisted for subtable j. The subround barrier drains them all —
	// no mutex in the scan, and no allocation after the first subround.
	added := make([][]uint64, workers)
	removed := make([][]uint64, workers)
	var relist [][][]int

	// Frontier state. pending[c] != 0 while cell c sits in a candidate
	// list; the CAS guard gives each cell at most one pending entry,
	// which is what makes double recovery impossible. Every cell starts
	// as a candidate once.
	var pending []uint32
	var cands [][]int
	var peel []int
	grain := 1024
	if frontier {
		grain = 512
		pending = make([]uint32, t.Cells())
		cands = make([][]int, t.r)
		relist = make([][][]int, workers)
		for w := range relist {
			relist[w] = make([][]int, t.r)
		}
		for j := range cands {
			cands[j] = make([]int, t.subSize)
			for ci := range cands[j] {
				cands[j][ci] = j*t.subSize + ci
				pending[j*t.subSize+ci] = 1
			}
		}
	}

	subround := 0
	for round := 1; ; round++ {
		productive := false
		for j := 0; j < t.r; j++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			subround++
			base, n := j*t.subSize, t.subSize
			if frontier {
				// Snapshot and clear the candidates single-threaded, so
				// deletions during the scan can re-enlist cells.
				peel = append(peel[:0], cands[j]...)
				cands[j] = cands[j][:0]
				for _, c := range peel {
					atomic.StoreUint32(&pending[c], 0)
				}
				n = len(peel)
			}
			pool.For(n, grain, func(w, lo, hi int) {
				add, rem := added[w], removed[w]
				for idx := lo; idx < hi; idx++ {
					i := base + idx
					if frontier {
						i = peel[idx]
					}
					x, sign, isPure := t.pureAtomic(i)
					if !isPure {
						continue
					}
					// Delete x from every subtable (including this cell).
					cs := t.checksum(x)
					for jj := 0; jj < t.r; jj++ {
						c := t.cellIndex(x, jj)
						atomic.AddInt64(&t.count[c], -sign)
						parallel.XorUint64(&t.keySum[c], x)
						parallel.XorUint64(&t.checkSum[c], cs)
						if frontier && c != i && atomic.CompareAndSwapUint32(&pending[c], 0, 1) {
							relist[w][jj] = append(relist[w][jj], c)
						}
					}
					if sign > 0 {
						add = append(add, x)
					} else {
						rem = append(rem, x)
					}
				}
				added[w], removed[w] = add, rem
			})

			got := 0
			for w := 0; w < workers; w++ {
				got += len(added[w]) + len(removed[w])
				res.Added = append(res.Added, added[w]...)
				res.Removed = append(res.Removed, removed[w]...)
				added[w], removed[w] = added[w][:0], removed[w][:0]
				if frontier {
					for jj := range cands {
						cands[jj] = append(cands[jj], relist[w][jj]...)
						relist[w][jj] = relist[w][jj][:0]
					}
				}
			}
			if got > 0 {
				res.Subrounds = subround
				productive = true
			}
			if len(res.Added)+len(res.Removed) >= t.Cells() {
				return res, nil // hostile table; see Decode
			}
		}
		if !productive {
			break
		}
		res.Rounds = round
	}
	res.Complete = t.empty()
	return res, nil
}

// pureAtomic is the atomic-read variant of pure used by the parallel
// decoders. A torn read across the three fields can only produce a
// checksum mismatch (the checksum is an independent 64-bit hash), never
// a bogus recovery.
func (t *Table) pureAtomic(i int) (x uint64, sign int64, ok bool) {
	c := atomic.LoadInt64(&t.count[i])
	if c != 1 && c != -1 {
		return 0, 0, false
	}
	x = atomic.LoadUint64(&t.keySum[i])
	if x == 0 || t.checksum(x) != atomic.LoadUint64(&t.checkSum[i]) {
		return 0, 0, false
	}
	return x, c, true
}
