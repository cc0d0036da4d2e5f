// Package bloomier implements a Bloomier-filter-style static function
// (Chazelle, Kilian, Rubinfeld, Tal — reference [4] of the paper): an
// immutable map from a fixed key set to values, stored in ~1.23 slots per
// key with O(1) lookups and no explicit key storage.
//
// Construction is pure peeling: keys are edges of a random 3-partite
// hypergraph over the slot array, and if the 2-core is empty the linear
// system "XOR of a key's 3 slots = value" is triangular in reverse peel
// order, so it is solved by back-substitution without Gaussian
// elimination. This is exactly the regime the paper analyzes — density
// 1/1.23 ≈ 0.813 < c*(2,3) ≈ 0.818 — and the same construction
// underlies Biff codes and XOR-based retrieval structures. The peel runs
// on the hashed edge list itself (core.ParallelOrderEdgesCtx): no
// incidence index is built.
//
// Build-time and serve-time are split by the versioned flat layout
// (internal/layout): the builder back-substitutes straight into a
// contiguous sealed image, and Filter is a thin read-only view over
// such an image — the same lookup code path whether the image came from
// a fresh build, Open of marshaled bytes, or an mmap'd file.
//
// Lookups on keys outside the build set return arbitrary values (add a
// fingerprint to detect them if needed).
package bloomier

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// DefaultGamma is the slots-per-key overhead, chosen just below the
// peeling threshold like the MPHF construction.
const DefaultGamma = 1.23

const arity = layout.Arity

// Filter is an immutable key → uint64 map built by Build: a read-only
// view over a flat layout image. Bytes serializes it with zero copies,
// and Open / FromImage reconstruct an identical filter from those
// bytes.
type Filter struct {
	im *layout.Image
}

// ErrBuildFailed is returned when peeling leaves a non-empty 2-core on
// every attempted seed (with distinct keys this is astronomically rare
// at γ = 1.23; duplicate keys return ErrDuplicateKeys instead). The
// returned error wraps it together with the final attempt's survivor
// count ("N edges left in 2-core after attempt T"), so errors.Is(err,
// ErrBuildFailed) works and the message says how close the last attempt
// came — the number to look at when tuning gamma or maxTries.
var ErrBuildFailed = errors.New("bloomier: construction failed on all attempts")

// ErrDuplicateKeys is returned when the key set contains duplicates.
// Two equal keys hash to identical edges, which always sit in the
// 2-core, so only a build whose first attempt fails checks for them —
// after one attempt, not after every seed has been tried.
var ErrDuplicateKeys = errors.New("bloomier: duplicate keys")

// Build constructs a filter mapping keys[i] → values[i]. Keys must be
// distinct. gamma is the slot/key ratio (use DefaultGamma); maxTries
// bounds seed retries. The whole build path — hashing, the ordered
// parallel peel, and round-parallel back-substitution — runs on the
// process-wide default pool; use BuildWithPool to pin it to an
// explicit one. The resulting filter is identical either way and at
// every pool size.
//
//peelvet:deterministic
func Build(keys, values []uint64, gamma float64, seed uint64, maxTries int) (*Filter, error) {
	return BuildWithPool(keys, values, gamma, seed, maxTries, parallel.Default())
}

// BuildWorkers is Build on a private pool of the given size (workers
// <= 0 selects the default size), created once for ALL retry attempts
// and closed before returning — a 10-retry build pays worker startup
// once, not per attempt. Callers building many filters should share one
// pool across builds via BuildWithPool instead.
//
//peelvet:deterministic
func BuildWorkers(keys, values []uint64, gamma float64, seed uint64, maxTries, workers int) (*Filter, error) {
	pool := parallel.NewPool(workers)
	defer pool.Close()
	return BuildWithPool(keys, values, gamma, seed, maxTries, pool)
}

// BuildWithPool is Build with every construction phase — per-key edge
// hashing on each retry attempt, the peel, and the back-substitution —
// run on an explicit worker pool. The peel is the ordered
// round-synchronous process on the flat edge list
// (core.ParallelOrderEdgesCtx), whose round-major order and
// minimum-endpoint orientation are bit-stable, so the resulting filter
// is byte-identical at every pool size. All per-build state is owned by
// the call, so many builds may run concurrently on one shared pool.
//
//peelvet:deterministic
func BuildWithPool(keys, values []uint64, gamma float64, seed uint64, maxTries int, pool *parallel.Pool) (*Filter, error) {
	return BuildCtx(context.Background(), keys, values, gamma, seed, maxTries, pool)
}

// BuildCtx is BuildWithPool with cooperative cancellation, checked at
// every round barrier of every attempt's peel and back-substitution
// sweep — a canceled build stops within one round of extra work. On
// cancellation it returns (nil, ctx.Err()).
//
//peelvet:deterministic
func BuildCtx(ctx context.Context, keys, values []uint64, gamma float64, seed uint64, maxTries int, pool *parallel.Pool) (*Filter, error) {
	if len(keys) != len(values) {
		return nil, fmt.Errorf("bloomier: %d keys but %d values", len(keys), len(values))
	}
	if gamma < 1.1 {
		return nil, fmt.Errorf("bloomier: gamma %.3f too small (< 1.1 cannot peel)", gamma)
	}
	if maxTries <= 0 {
		maxTries = 10
	}
	m := len(keys)
	subSize := int(gamma*float64(m))/arity + 1
	if subSize < 2 {
		subSize = 2
	}
	survivors := 0
	for try := 0; try < maxTries; try++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		attemptSeed, hseed := attemptSeeds(seed, try)
		im, left, err := buildAttempt(ctx, keys, values, attemptSeed, hseed, m, subSize, pool)
		if err != nil {
			return nil, err
		}
		if faultinject.Enabled {
			// Failpoint: setting the *bool forces this attempt to report
			// a non-empty 2-core, as an unlucky seed would.
			forceFail := false
			faultinject.Fire(faultinject.BloomierAttempt, &forceFail)
			if forceFail {
				im, left = nil, len(keys)
			}
		}
		if im != nil {
			return &Filter{im: im}, nil
		}
		survivors = left
		if try == 0 && layout.HasDuplicateKeys(keys) {
			return nil, ErrDuplicateKeys
		}
	}
	return nil, fmt.Errorf("%w: %d edges left in 2-core after attempt %d", ErrBuildFailed, survivors, maxTries)
}

// attemptSeeds derives attempt try's seed and the three vertex-hash
// seeds stored in the image header.
func attemptSeeds(seed uint64, try int) (attemptSeed uint64, hseed [arity]uint64) {
	attemptSeed = rng.Mix64(seed + uint64(try)*0x9e3779b97f4a7c15)
	for j := 0; j < arity; j++ {
		hseed[j] = rng.Mix64(attemptSeed ^ uint64(j+1)*0x94d049bb133111eb)
	}
	return
}

// hashEdges maps every key to its three slots in parallel (each key's
// vertices depend only on the key and the attempt seeds, so the result
// is independent of the pool size).
func hashEdges(keys []uint64, hseed [arity]uint64, subSize int, pool *parallel.Pool) []uint32 {
	edges := make([]uint32, len(keys)*arity)
	pool.For(len(keys), 2048, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			vs := layout.VertexTriple(hseed, subSize, keys[i])
			copy(edges[i*arity:], vs[:])
		}
	})
	return edges
}

// buildAttempt peels the key hypergraph for one seed attempt and, on an
// empty 2-core, back-substitutes the slot values straight into a
// freshly allocated flat image — slots[v0] ^ slots[v1] ^ slots[v2] =
// value for every key — and seals it; a non-empty 2-core returns (nil,
// survivors, nil) so the retry loop can surface the count through
// ErrBuildFailed. The peel is the ordered round-synchronous process on
// the hashed edge list and back-substitution walks its rounds in
// reverse, the edges of one round in parallel — sound for k = 2: within
// a round every peeled edge has a distinct free vertex and non-free
// endpoints finalize strictly later (see core.OrderedResult). ctx is
// checked at every round barrier.
func buildAttempt(ctx context.Context, keys, values []uint64, attemptSeed uint64, hseed [arity]uint64, m, subSize int, pool *parallel.Pool) (*layout.Image, int, error) {
	n := subSize * arity
	edges := hashEdges(keys, hseed, subSize, pool)
	ord, err := core.ParallelOrderEdgesCtx(ctx, n, arity, edges, core.Options{Pool: pool})
	if err != nil {
		return nil, 0, err
	}
	if !ord.Empty() {
		return nil, ord.CoreEdges, nil
	}
	im := layout.NewBloomier(attemptSeed, hseed, m, subSize)
	slots := im.Slots
	// Reverse round-major order: the free vertex's slot is still
	// untouched when its edge is processed, and the other two slots are
	// final.
	for t := ord.Rounds; t >= 1; t-- {
		seg := ord.RoundSegment(t)
		if err := pool.ForCtx(ctx, len(seg), 1024, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				e := int(seg[i])
				free := ord.FreeVertex[e]
				acc := values[e]
				for _, u := range edges[e*arity : e*arity+arity] {
					if u != free {
						acc ^= slots[u]
					}
				}
				slots[free] = acc
			}
		}); err != nil {
			return nil, 0, err
		}
	}
	im.Marshal() // seal: checksum now covers the final slot array
	return im, 0, nil
}

// FromImage wraps an already-open flat image as a Filter view. The
// image must have been produced by this package's builder (or validated
// by layout.Open); its bytes must stay immutable for the life of the
// filter.
func FromImage(im *layout.Image) (*Filter, error) {
	if im == nil || im.Kind != layout.KindBloomier {
		return nil, fmt.Errorf("bloomier: image kind is not %v", layout.KindBloomier)
	}
	return &Filter{im: im}, nil
}

// Open validates data as a flat Bloomier image and returns a zero-copy
// read-only view over it: no array is decoded or copied, so data must
// stay immutable (and mapped) for the life of the filter. Corrupt or
// hostile images return layout.ErrBadImage; unaligned slices return
// layout.ErrUnaligned (repair with layout.Aligned).
func Open(data []byte) (*Filter, error) {
	im, err := layout.Open(data)
	if err != nil {
		return nil, err
	}
	return FromImage(im)
}

// Image returns the filter's flat image.
func (f *Filter) Image() *layout.Image { return f.im }

// Bytes returns the filter's sealed flat image without copying — the
// exact bytes Open accepts. The slice aliases the filter's slot array;
// treat it as read-only.
func (f *Filter) Bytes() []byte { return f.im.Bytes() }

// Seed returns the successful build attempt's seed.
func (f *Filter) Seed() uint64 { return f.im.Seed }

// Keys returns the number of keys the filter was built over.
func (f *Filter) Keys() int { return f.im.Keys }

// Lookup returns the value stored for key x (arbitrary for foreign keys).
func (f *Filter) Lookup(x uint64) uint64 {
	im := f.im
	vs := layout.VertexTriple(im.HSeed, im.SubSize, x)
	return im.Slots[vs[0]] ^ im.Slots[vs[1]] ^ im.Slots[vs[2]]
}

// LookupValue adapts Lookup to the static-function serving contract
// (repro.StaticFunc); it is identical to Lookup.
func (f *Filter) LookupValue(x uint64) uint64 { return f.Lookup(x) }

// Slots returns the size of the slot array (≈ γ × keys); total storage is
// 8·Slots() bytes.
func (f *Filter) Slots() int { return len(f.im.Slots) }

// BuildParallel builds the same filter as Build.
//
// Deprecated: the two construction pipelines — Build's ordered-round
// peel and BuildParallel's subround (Appendix B) peel — have been
// folded into the single ordered-path implementation: it is fully
// parallel, bit-stable at every worker count, and produces one
// canonical image per (keys, values, seed). BuildParallel is now an
// alias of Build kept for source compatibility. (Historically the two
// paths could return different foreign-key garbage; now every build of
// the same inputs is byte-identical.)
func BuildParallel(keys, values []uint64, gamma float64, seed uint64, maxTries int) (*Filter, error) {
	return Build(keys, values, gamma, seed, maxTries)
}

// BuildParallelWorkers is BuildParallel on a private pool of the given
// size, created once for all retry attempts and closed before
// returning.
//
// Deprecated: alias of BuildWorkers; see BuildParallel.
func BuildParallelWorkers(keys, values []uint64, gamma float64, seed uint64, maxTries, workers int) (*Filter, error) {
	return BuildWorkers(keys, values, gamma, seed, maxTries, workers)
}

// BuildParallelWithPool is BuildParallel on an explicit worker pool.
//
// Deprecated: alias of BuildWithPool; see BuildParallel.
func BuildParallelWithPool(keys, values []uint64, gamma float64, seed uint64, maxTries int, pool *parallel.Pool) (*Filter, error) {
	return BuildWithPool(keys, values, gamma, seed, maxTries, pool)
}

// BuildParallelCtx is BuildParallel with cooperative cancellation.
//
// Deprecated: alias of BuildCtx; see BuildParallel.
func BuildParallelCtx(ctx context.Context, keys, values []uint64, gamma float64, seed uint64, maxTries int, pool *parallel.Pool) (*Filter, error) {
	return BuildCtx(ctx, keys, values, gamma, seed, maxTries, pool)
}
