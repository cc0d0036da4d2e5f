// Package iblt implements Invertible Bloom Lookup Tables (Goodrich &
// Mitzenmacher), the data structure whose recovery procedure motivates the
// parallel peeling analysis of Jiang, Mitzenmacher, and Thaler (SPAA 2014,
// Section 6).
//
// A table consists of r equal subtables; inserting a key XORs it (and a
// checksum) into one hashed cell per subtable and increments the cell
// counts. The table thereby defines a random r-uniform partitioned
// hypergraph: cells are vertices, keys are edges, and recovery — repeatedly
// extracting "pure" cells that hold exactly one key — is precisely peeling
// to the 2-core. Recovery succeeds in full iff the 2-core is empty, which
// holds w.h.p. while load = keys/cells stays below c*(2,r) (≈ 0.818 for
// r = 3, ≈ 0.772 for r = 4).
//
// Recovery comes in two procedures, mirroring the paper's serial CPU
// and parallel GPU implementations:
//
//   - Decode: queue-driven serial peeling, O(cells + keys·r).
//   - DecodeParallelCtx / DecodeParallelFrontierCtx: the subround
//     process of Section 6 and Appendix B. A round iterates the r
//     subtables serially; each subround examines one subtable's cells
//     in parallel and deletes recovered keys from the other subtables
//     with atomic XOR/add updates. Because a key occupies exactly one
//     cell per subtable, no key can be recovered twice in one subround
//     — the paper's reason for the subtable layout. The two entry
//     points run one loop and differ only in which cells a subround
//     examines: all of the subtable (the paper's GPU kernel), or just
//     the cells a deletion touched since they were last examined.
//
// Subtract turns two tables into a difference table whose decode returns
// the symmetric difference of the encoded sets (set reconciliation,
// Eppstein et al.): keys only in this table come back with count +1, keys
// only in the other with count −1.
package iblt

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// cell fields are kept in separate arrays (structure-of-arrays) so the
// parallel scan streams each field and atomic updates touch independent
// cache words.
type Table struct {
	r       int
	subSize int
	seed    uint64
	hseed   []uint64 // one hash seed per subtable
	cseed   uint64   // checksum seed

	count    []int64
	keySum   []uint64
	checkSum []uint64
}

// New returns an empty table with r subtables and at least cells cells in
// total (rounded up to a multiple of r). r must be in [2, 8] and cells
// positive; New panics otherwise. Two tables built with the same
// (cells, r, seed) are compatible for Subtract.
func New(cells, r int, seed uint64) *Table {
	if r < 2 || r > 8 {
		panic(fmt.Sprintf("iblt: r = %d outside [2, 8]", r))
	}
	if cells <= 0 {
		panic("iblt: non-positive cell count")
	}
	subSize := (cells + r - 1) / r
	t := &Table{
		r:        r,
		subSize:  subSize,
		seed:     seed,
		hseed:    make([]uint64, r),
		cseed:    rng.Mix64(seed ^ 0xc3a5c85c97cb3127),
		count:    make([]int64, subSize*r),
		keySum:   make([]uint64, subSize*r),
		checkSum: make([]uint64, subSize*r),
	}
	for j := 0; j < r; j++ {
		t.hseed[j] = rng.Mix64(seed + uint64(j)*0x9e3779b97f4a7c15)
	}
	return t
}

// Cells returns the total number of cells (r × subtable size).
func (t *Table) Cells() int { return t.subSize * t.r }

// R returns the number of subtables (hash functions).
func (t *Table) R() int { return t.r }

// Load returns the hypergraph edge density corresponding to holding keys
// keys: keys / Cells().
func (t *Table) Load(keys int) float64 { return float64(keys) / float64(t.Cells()) }

// cellIndex returns the cell of key x in subtable j, using multiply-shift
// range reduction of the top hash bits (no modulo bias for subtable sizes
// far below 2^32, which covers the paper's 2^24-cell tables).
func (t *Table) cellIndex(x uint64, j int) int {
	h := rng.Mix64(x ^ t.hseed[j])
	return j*t.subSize + int((h>>32)*uint64(t.subSize)>>32)
}

// checksum returns the per-key checksum mixed with an independent seed.
func (t *Table) checksum(x uint64) uint64 { return rng.Mix64(x ^ t.cseed) }

// checkKey panics if x is the zero key, which XOR accounting cannot
// represent.
func (t *Table) checkKey(x uint64) {
	if x == 0 {
		panic("iblt: zero key is not representable (XOR identity)")
	}
}

// Insert adds key x to the table. Keys must be nonzero and distinct; a key
// inserted twice is unrecoverable (its cells never become pure), exactly
// like a duplicated hyperedge in the peeling analysis.
func (t *Table) Insert(x uint64) { t.checkKey(x); t.apply(x, 1) }

// Delete removes key x (inserting and deleting are symmetric XOR
// operations, so deleting an absent key records a negative-count entry,
// which Subtract/set-reconciliation decoding relies on).
func (t *Table) Delete(x uint64) { t.checkKey(x); t.apply(x, -1) }

func (t *Table) apply(x uint64, delta int64) {
	cs := t.checksum(x)
	for j := 0; j < t.r; j++ {
		i := t.cellIndex(x, j)
		t.count[i] += delta
		t.keySum[i] ^= x
		t.checkSum[i] ^= cs
	}
}

// InsertAllWithPool inserts keys in parallel on pool, using atomic cell
// updates (the goroutine analog of the paper's one-CUDA-thread-per-item
// insertion phase with atomic XOR). Panics if a key is zero.
func (t *Table) InsertAllWithPool(keys []uint64, pool *parallel.Pool) {
	if err := t.applyAllCtx(context.Background(), keys, 1, pool); err != nil {
		panic(err)
	}
}

// DeleteAllWithPool deletes keys in parallel on pool. Panics if a key
// is zero.
func (t *Table) DeleteAllWithPool(keys []uint64, pool *parallel.Pool) {
	if err := t.applyAllCtx(context.Background(), keys, -1, pool); err != nil {
		panic(err)
	}
}

// applyAllCtx is the bulk update behind InsertAllWithPool,
// DeleteAllWithPool and ReconcileCtx: it adds (delta = +1) or removes
// (delta = -1) keys in parallel, checking ctx between batch chunks. A
// panicking chunk (a zero key) comes back as a *parallel.PanicError. On
// a non-nil return the table holds an unspecified subset of keys and
// must be discarded.
func (t *Table) applyAllCtx(ctx context.Context, keys []uint64, delta int64, pool *parallel.Pool) error {
	return pool.ForCtx(ctx, len(keys), 1024, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			t.checkKey(keys[i])
			t.applyAtomic(keys[i], delta)
		}
	})
}

// applyAtomic adds (delta = +1) or removes (delta = -1) key x using
// atomic cell updates — the single-key concurrent insert primitive
// shared by the bulk paths and the strata estimator's parallel inserts.
// Safe to call concurrently for any mix of keys and tables.
func (t *Table) applyAtomic(x uint64, delta int64) {
	cs := t.checksum(x)
	for j := 0; j < t.r; j++ {
		c := t.cellIndex(x, j)
		atomic.AddInt64(&t.count[c], delta)
		parallel.XorUint64(&t.keySum[c], x)
		parallel.XorUint64(&t.checkSum[c], cs)
	}
}

// Clone returns a deep copy (decoding is destructive; clone first to keep
// the original).
func (t *Table) Clone() *Table {
	c := &Table{
		r: t.r, subSize: t.subSize, seed: t.seed, cseed: t.cseed,
		hseed:    append([]uint64(nil), t.hseed...),
		count:    append([]int64(nil), t.count...),
		keySum:   append([]uint64(nil), t.keySum...),
		checkSum: append([]uint64(nil), t.checkSum...),
	}
	return c
}

// Subtract replaces t with the cell-wise difference t − other. The two
// tables must share geometry and seed; Subtract panics if they do not.
// After subtraction, decoding yields the symmetric difference of the two
// encoded sets.
func (t *Table) Subtract(other *Table) {
	if t.r != other.r || t.subSize != other.subSize || t.seed != other.seed {
		panic("iblt: subtracting incompatible tables")
	}
	for i := range t.count {
		t.count[i] -= other.count[i]
		t.keySum[i] ^= other.keySum[i]
		t.checkSum[i] ^= other.checkSum[i]
	}
}

// pure reports whether cell i holds exactly one key, and returns that key
// and its sign (+1: surplus/inserted side, −1: deficit/deleted side).
func (t *Table) pure(i int) (x uint64, sign int64, ok bool) {
	c := t.count[i]
	if c != 1 && c != -1 {
		return 0, 0, false
	}
	x = t.keySum[i]
	if x == 0 || t.checksum(x) != t.checkSum[i] {
		return 0, 0, false
	}
	return x, c, true
}

// Decode peels the table serially. It returns the keys recovered with
// positive sign (added) and negative sign (removed), and ok = true iff
// the table decoded completely (all cells empty afterwards). Decoding is
// destructive; Clone first if the table is still needed. Partial results
// are returned even when ok = false — the recovered-percentage column of
// the paper's Tables 3-4 is len(added)/keys on failing loads.
//
// Decode stops after Cells() recoveries and reports ok = false: each key
// an honest table yields is released by a distinct pure cell that is
// zero afterwards, so only a hostile table (e.g. one key planted in a
// single cell, which re-emerges with the opposite sign on every
// recovery) gets that far, and without the cap it would never finish.
func (t *Table) Decode() (added, removed []uint64, ok bool) {
	queue := make([]int, 0, 256)
	for i := range t.count {
		if _, _, isPure := t.pure(i); isPure {
			queue = append(queue, i)
		}
	}
	for head := 0; head < len(queue); head++ {
		if len(added)+len(removed) == t.Cells() {
			return added, removed, false
		}
		i := queue[head]
		x, sign, isPure := t.pure(i)
		if !isPure {
			continue // became impure since enqueued (already drained)
		}
		if sign > 0 {
			added = append(added, x)
		} else {
			removed = append(removed, x)
		}
		cs := t.checksum(x)
		for j := 0; j < t.r; j++ {
			c := t.cellIndex(x, j)
			t.count[c] -= sign
			t.keySum[c] ^= x
			t.checkSum[c] ^= cs
			if _, _, p := t.pure(c); p {
				queue = append(queue, c)
			}
		}
	}
	return added, removed, t.empty()
}

// empty reports whether every cell is zeroed.
func (t *Table) empty() bool {
	for i := range t.count {
		if t.count[i] != 0 || t.keySum[i] != 0 || t.checkSum[i] != 0 {
			return false
		}
	}
	return true
}
