// Package erasure implements a Biff-style (Bloom-filter) erasure code
// (Mitzenmacher & Varghese), one of the peeling applications motivating
// Jiang, Mitzenmacher, and Thaler (SPAA 2014): each data symbol is XORed
// into r hashed check cells, so the erased symbols form the edges of a
// random r-uniform hypergraph over the check cells, and decoding is
// exactly peeling to the 2-core.
//
// Decoding succeeds with high probability as long as
//
//	(#erased symbols) < c*(2,r) × (#check cells),
//
// e.g. r = 3 tolerates losses up to ~0.818 × cells — the paper's
// below-threshold regime, where the parallel decoder also finishes in
// O(log log n) rounds.
package erasure

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// Cell is one check symbol: the XOR of the values of the data symbols
// hashed to it, a XOR of their (index+1) tags, a count, and a checksum
// that guards pure-cell detection after subtraction. Layout matters for
// applyAtomic's 64-bit atomics on 32-bit platforms: the uint64 fields
// lead and the explicit tail padding keeps the struct size a multiple
// of 8, so every element of a []Cell (whose backing array the allocator
// 8-aligns) has 8-aligned uint64 fields.
type Cell struct {
	IdxSum   uint64 // XOR of (index+1); +1 keeps index 0 representable
	ValueSum uint64 // XOR of symbol values
	CheckSum uint64 // XOR of per-symbol checksums
	Count    int32
	_        [4]byte
}

// Code is a (cells, r, seed) configuration. Encoding and decoding must
// use identical configurations.
type Code struct {
	cells int
	r     int
	hseed []uint64
	cseed uint64
}

// NewCode returns a code with the given number of check cells and r hash
// positions per data symbol (r in [3, 8]; r = 2's threshold c*(2,2) is
// degenerate and excluded, as in the paper). Panics if r is outside
// [3, 8] or cells is non-positive — both are static configuration bugs,
// not runtime conditions.
func NewCode(cells, r int, seed uint64) *Code {
	if r < 3 || r > 8 {
		panic(fmt.Sprintf("erasure: r = %d outside [3, 8]", r))
	}
	if cells <= 0 {
		panic("erasure: non-positive cell count")
	}
	c := &Code{
		cells: cells,
		r:     r,
		hseed: make([]uint64, r),
		cseed: rng.Mix64(seed ^ 0x5851f42d4c957f2d),
	}
	for j := 0; j < r; j++ {
		c.hseed[j] = rng.Mix64(seed + uint64(j)*0xbf58476d1ce4e5b9)
	}
	return c
}

// Cells returns the number of check cells.
func (c *Code) Cells() int { return c.cells }

// positions fills pos with the r distinct cells of symbol index i,
// resolving hash collisions by linear re-hashing (so the hypergraph is
// r-uniform with distinct vertices, matching the analysis).
func (c *Code) positions(i int, pos []int) {
	for j := 0; j < c.r; j++ {
		h := rng.Mix64(uint64(i+1) ^ c.hseed[j])
	retry:
		p := int((h >> 32) * uint64(c.cells) >> 32)
		for jj := 0; jj < j; jj++ {
			if pos[jj] == p {
				h = rng.Mix64(h)
				goto retry
			}
		}
		pos[j] = p
	}
}

func (c *Code) checksum(i int) uint64 { return rng.Mix64(uint64(i+1) ^ c.cseed) }

// Encode returns the check cells for the data block. The check overhead
// is Cells()/len(data); tolerable loss is ~c*(2,r)·Cells() symbols.
func (c *Code) Encode(data []uint64) []Cell {
	checks := make([]Cell, c.cells)
	pos := make([]int, c.r)
	for i, v := range data {
		cs := c.checksum(i)
		c.positions(i, pos)
		for _, p := range pos {
			checks[p].Count++
			checks[p].IdxSum ^= uint64(i + 1)
			checks[p].ValueSum ^= v
			checks[p].CheckSum ^= cs
		}
	}
	return checks
}

// EncodeCtx is Encode with the per-symbol cell updates fanned out over
// pool using atomic XOR/add — the erasure analog of the IBLT's parallel
// insertion phase. The resulting check block is cell-for-cell identical
// to Encode's (XOR updates commute). All per-call state is owned by the
// call, so concurrent encodes may share one pool. Cancellation is
// checked between batch chunks; on a non-nil return the check block is
// partially encoded and must be discarded.
func (c *Code) EncodeCtx(ctx context.Context, data []uint64, pool *parallel.Pool) ([]Cell, error) {
	checks := make([]Cell, c.cells)
	// Per-worker position buffers: chunks with the same worker ID never
	// run concurrently within this call, and the buffers are call-local,
	// so concurrent jobs sharing the pool cannot collide.
	posBufs := make([][]int, pool.Workers())
	for w := range posBufs {
		posBufs[w] = make([]int, c.r)
	}
	if err := pool.ForCtx(ctx, len(data), 2048, func(w, lo, hi int) {
		pos := posBufs[w]
		for i := lo; i < hi; i++ {
			c.applyAtomic(checks, i, data[i], pos, 1)
		}
	}); err != nil {
		return nil, err
	}
	return checks, nil
}

// applyAtomic adds (delta = +1) or subtracts (delta = -1) symbol i with
// value v into cells using atomic updates — the concurrent analog of
// subtract, shared by EncodeCtx and DecodeCtx. pos is the
// caller's scratch buffer (one per worker; same-ID chunks never run
// concurrently within a For call).
func (c *Code) applyAtomic(cells []Cell, i int, v uint64, pos []int, delta int32) {
	cs := c.checksum(i)
	c.positions(i, pos)
	for _, p := range pos {
		atomic.AddInt32(&cells[p].Count, delta)
		parallel.XorUint64(&cells[p].IdxSum, uint64(i+1))
		parallel.XorUint64(&cells[p].ValueSum, v)
		parallel.XorUint64(&cells[p].CheckSum, cs)
	}
}

// ErrDecodeFailed reports that peeling stalled — the erased symbols'
// hypergraph had a non-empty 2-core (loss rate above the threshold).
var ErrDecodeFailed = errors.New("erasure: peeling stalled; too many erasures")

// ErrShapeMismatch reports that a decode call's slices do not match the
// code's configuration: data and present differ in length, or the check
// block is not Cells() long.
var ErrShapeMismatch = errors.New("erasure: decode input shape mismatch")

// checkShape validates the decode inputs shared by Decode and DecodeCtx.
func (c *Code) checkShape(data []uint64, present []bool, checks []Cell) error {
	if len(data) != len(present) {
		return fmt.Errorf("%w: data/present length %d != %d", ErrShapeMismatch, len(data), len(present))
	}
	if len(checks) != c.cells {
		return fmt.Errorf("%w: check block length %d != %d cells", ErrShapeMismatch, len(checks), c.cells)
	}
	return nil
}

// Decode reconstructs the missing entries of data in place. present[i]
// reports whether data[i] survived the channel; checks is the full check
// block (assumed intact, as in the Biff code model). On success every
// entry of data is restored and present is all true. On failure
// ErrDecodeFailed is returned and any symbols recovered before the stall
// are filled in (present marks them). Mis-shaped inputs (data/present
// length mismatch, or a check block that is not Cells() long) return an
// error wrapping ErrShapeMismatch.
func (c *Code) Decode(data []uint64, present []bool, checks []Cell) error {
	if err := c.checkShape(data, present, checks); err != nil {
		return err
	}
	// Subtract every received symbol; what remains is an IBLT of the
	// missing ones.
	work := make([]Cell, c.cells)
	copy(work, checks)
	pos := make([]int, c.r)
	missing := 0
	for i, v := range data {
		if !present[i] {
			missing++
			continue
		}
		c.subtract(work, i, v, pos)
	}
	if missing == 0 {
		return nil
	}
	return c.peel(work, data, present, missing)
}

// DecodeCtx is Decode with both phases on pool: the received-symbol
// subtraction pass (the O(data) part that dominates when few symbols
// are missing) fans out with atomic cell updates, and recovery runs the
// round-synchronous parallel peel decodeRounds — the erasure analog of
// the IBLT's subround decoder — instead of the serial queue peel.
// Results are identical to Decode (peeling is confluent; the recovered
// set and values do not depend on scheduling). All per-call state is
// owned by the call, so concurrent decodes may share one pool.
//
// Cancellation is checked inside the subtraction pass and at every
// peeling round barrier. On cancellation it returns ctx.Err(); data and
// present are then partially updated and must be treated as abandoned.
// Mis-shaped inputs return an error wrapping ErrShapeMismatch, as in
// Decode.
func (c *Code) DecodeCtx(ctx context.Context, data []uint64, present []bool, checks []Cell, pool *parallel.Pool) error {
	if err := c.checkShape(data, present, checks); err != nil {
		return err
	}
	work := make([]Cell, c.cells)
	copy(work, checks)
	posBufs := make([][]int, pool.Workers())
	for w := range posBufs {
		posBufs[w] = make([]int, c.r)
	}
	missingCount := pool.NewCounter()
	if err := pool.ForCtx(ctx, len(data), 2048, func(w, lo, hi int) {
		pos := posBufs[w]
		for i := lo; i < hi; i++ {
			if !present[i] {
				missingCount.Add(w, 1)
				continue
			}
			c.applyAtomic(work, i, data[i], pos, -1)
		}
	}); err != nil {
		return err
	}
	missing := int(missingCount.Sum())
	if missing == 0 {
		return nil
	}
	return c.decodeRounds(ctx, work, data, present, missing, pool)
}

// decodeRounds recovers the missing symbols with a round-synchronous
// parallel peel on the pool — the recovery-phase analog of the IBLT's
// frontier subround decoder. Every cell is a candidate once; each round
// examines the candidate set in parallel, recovers the pure cells'
// symbols, subtracts them atomically, and re-enlists the touched cells
// for the next round. Work is proportional to cells + peeling work, like
// the serial peel, and the round structure matches the paper's analysis
// (O(log log n) rounds below threshold).
//
// Two disciplines make the concurrency safe:
//
//   - An atomic claim bitset over symbol indices guarantees each symbol
//     is recovered and subtracted exactly once, even when several of its
//     cells are pure in the same round (the erasure hypergraph has no
//     subtable structure, so — unlike the IBLT subround decoder — two
//     workers can see the same symbol pure simultaneously).
//   - pureAtomic reads the checksum before the value while applyAtomic
//     writes the checksum last, so a checksum match proves the value read
//     includes every concurrent subtraction that could have produced the
//     matching idx/checksum pair; torn reads fail the checksum and the
//     touched cell is simply re-examined next round (the toucher
//     re-enlisted it).
func (c *Code) decodeRounds(ctx context.Context, work []Cell, data []uint64, present []bool, missing int, pool *parallel.Pool) error {
	workers := pool.Workers()
	// pending[p] != 0 while cell p sits in a candidate list; the CAS
	// guard gives each cell at most one pending entry.
	pending := make([]uint32, c.cells)
	cands := make([]int, c.cells)
	for p := range cands {
		cands[p] = p
		pending[p] = 1
	}
	claimed := parallel.NewBitset(len(data))
	recovered := pool.NewCounter()
	posBufs := make([][]int, workers)
	relist := make([][]int, workers)
	for w := range posBufs {
		posBufs[w] = make([]int, c.r)
	}

	var peel []int
	for len(cands) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Phase A (single-threaded): snapshot and clear pending flags so
		// subtractions during Phase B can re-enlist cells.
		peel, cands = cands, peel[:0]
		for _, p := range peel {
			atomic.StoreUint32(&pending[p], 0)
		}
		pool.For(len(peel), 512, func(w, lo, hi int) {
			pos := posBufs[w]
			local := relist[w]
			for idx := lo; idx < hi; idx++ {
				p := peel[idx]
				i, v, ok := c.pureAtomic(&work[p])
				if !ok {
					continue
				}
				// Claim symbol i: exactly one worker subtracts it even if
				// several of its cells are pure this round.
				if !claimed.AtomicSet(i) {
					continue
				}
				// Distinct claimed indices → distinct data/present slots;
				// no two workers write the same element.
				data[i] = v
				present[i] = true
				recovered.Add(w, 1)
				cs := c.checksum(i)
				c.positions(i, pos)
				for _, q := range pos {
					atomic.AddInt32(&work[q].Count, -1)
					parallel.XorUint64(&work[q].IdxSum, uint64(i+1))
					parallel.XorUint64(&work[q].ValueSum, v)
					parallel.XorUint64(&work[q].CheckSum, cs)
					if atomic.CompareAndSwapUint32(&pending[q], 0, 1) {
						local = append(local, q)
					}
				}
			}
			relist[w] = local
		})
		for w := range relist {
			cands = append(cands, relist[w]...)
			relist[w] = relist[w][:0]
		}
	}
	if got := int(recovered.Sum()); got != missing {
		return fmt.Errorf("%w (recovered %d of %d)", ErrDecodeFailed, got, missing)
	}
	return nil
}

// pureAtomic is the atomic-read variant of pure used by decodeRounds: it
// reports whether the cell holds exactly one missing symbol, returning
// its index and value. Reads are ordered Count, IdxSum, CheckSum, then
// ValueSum; applyAtomic and the decode subtractions write CheckSum last,
// so a checksum that validates IdxSum proves the concurrent subtraction
// (if any) had already finished updating ValueSum when we read it. Any
// other torn combination fails the 64-bit checksum w.h.p. and the cell
// is retried on its next enlistment.
func (c *Code) pureAtomic(cell *Cell) (idx int, val uint64, ok bool) {
	if atomic.LoadInt32(&cell.Count) != 1 {
		return 0, 0, false
	}
	is := atomic.LoadUint64(&cell.IdxSum)
	if is == 0 {
		return 0, 0, false
	}
	idx = int(is - 1)
	if c.checksum(idx) != atomic.LoadUint64(&cell.CheckSum) {
		return 0, 0, false
	}
	return idx, atomic.LoadUint64(&cell.ValueSum), true
}

// peel runs the queue-driven serial peel of pure cells shared by Decode
// and DecodeCtx, filling recovered symbols into data/present.
func (c *Code) peel(work []Cell, data []uint64, present []bool, missing int) error {
	pos := make([]int, c.r)
	queue := make([]int, 0, 256)
	for p := range work {
		if c.pure(&work[p]) {
			queue = append(queue, p)
		}
	}
	recovered := 0
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		if !c.pure(&work[p]) {
			continue
		}
		idx := int(work[p].IdxSum - 1)
		val := work[p].ValueSum
		data[idx] = val
		present[idx] = true
		recovered++
		c.subtract(work, idx, val, pos)
		for _, q := range pos {
			if c.pure(&work[q]) {
				queue = append(queue, q)
			}
		}
	}
	if recovered != missing {
		return fmt.Errorf("%w (recovered %d of %d)", ErrDecodeFailed, recovered, missing)
	}
	return nil
}

// pure reports whether cell holds exactly one missing symbol with a
// consistent checksum and a valid index tag.
func (c *Code) pure(cell *Cell) bool {
	if cell.Count != 1 || cell.IdxSum == 0 {
		return false
	}
	return c.checksum(int(cell.IdxSum-1)) == cell.CheckSum
}

func (c *Code) subtract(work []Cell, i int, v uint64, pos []int) {
	cs := c.checksum(i)
	c.positions(i, pos)
	for _, p := range pos {
		work[p].Count--
		work[p].IdxSum ^= uint64(i + 1)
		work[p].ValueSum ^= v
		work[p].CheckSum ^= cs
	}
}

// MaxTolerableLoss returns the approximate number of erasures the code
// survives w.h.p.: c*(2,r) × cells, with cstar supplied by the caller
// (see internal/threshold) to keep this package dependency-light.
func (c *Code) MaxTolerableLoss(cstar float64) int {
	return int(cstar * float64(c.cells))
}
