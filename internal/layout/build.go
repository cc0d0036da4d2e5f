package layout

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Builder is what one image kind adds to the shared peel-and-back-
// substitute driver, BuildCtx: everything else — hashing keys to
// 3-partite edges, the ordered k = 2 peel, the seed ladder, and the
// reverse round sweep — is common to every kind. Each image package
// fixes its Builder once; callers never set these fields.
type Builder struct {
	Kind Kind // image kind allocated on success; names the errors

	// Salt derives the attempt's three vertex-hash seeds (AttemptSeeds).
	// It is part of the kind's image contract: changing it changes
	// every image the kind builds.
	Salt uint64

	// Failpoint fires once per attempt with a *bool; setting it forces
	// the attempt to report a non-empty 2-core.
	Failpoint string

	// ErrBuildFailed is wrapped, with the last attempt's survivor count,
	// when every attempt leaves a non-empty 2-core; ErrDuplicateKeys is
	// returned when the first failure is explained by repeated keys.
	ErrBuildFailed, ErrDuplicateKeys error
}

// Kernel back-substitutes the peeled edges of one chunk of one peel
// round into im. edges holds Arity vertices per key (key e owns
// edges[e*Arity : e*Arity+Arity]) and free[e] is the vertex key e was
// peeled through. When the kernel runs, the slot of free[e] is still
// untouched and the key's other vertices are final: within a round
// every peeled edge has a distinct free vertex, and non-free endpoints
// free edges only in strictly later rounds (k = 2; see
// core.OrderedResult). Chunks of one round run concurrently, so the
// kernel writes only free[e]'s slot, plus atomic updates to shared words.
type Kernel func(im *Image, edges, free, peeled []uint32)

// BuildCtx builds a b.Kind image over keys: it hashes every key to a
// 3-partite edge over ≈ gamma·len(keys) vertices, peels the edge list
// to its 2-core (core.ParallelOrderEdgesCtx), and on an empty core
// walks the peel rounds in reverse, handing each round's edges to
// kernel chunk by chunk. A non-empty core retries with the next seed of
// the ladder, up to maxTries attempts (<= 0 means 10). The returned
// image is unsealed: the caller finishes any derived sections and calls
// Marshal.
//
// Every phase runs on pool and the peel order is bit-stable, so the
// image is byte-identical at every pool size. ctx is checked at every
// round barrier of every attempt; on cancellation BuildCtx returns
// (nil, ctx.Err()).
//
//peelvet:deterministic
func (b *Builder) BuildCtx(ctx context.Context, keys []uint64, gamma float64, seed uint64, maxTries int, pool *parallel.Pool, kernel Kernel) (*Image, error) {
	if gamma < 1.1 {
		return nil, fmt.Errorf("%v: gamma %.3f too small (< 1.1 cannot peel)", b.Kind, gamma)
	}
	if maxTries <= 0 {
		maxTries = 10
	}
	subSize := int(gamma*float64(len(keys)))/Arity + 1
	if subSize < 2 {
		subSize = 2
	}
	survivors := 0
	for try := 0; try < maxTries; try++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		im, left, err := b.attempt(ctx, keys, seed, try, subSize, pool, kernel)
		if err != nil {
			return nil, err
		}
		if faultinject.Enabled {
			forceFail := false
			faultinject.Fire(b.Failpoint, &forceFail)
			if forceFail {
				im, left = nil, len(keys)
			}
		}
		if im != nil {
			return im, nil
		}
		survivors = left
		if try == 0 && HasDuplicateKeys(keys) {
			return nil, b.ErrDuplicateKeys
		}
	}
	return nil, fmt.Errorf("%w: %d edges left in 2-core after attempt %d", b.ErrBuildFailed, survivors, maxTries)
}

// AttemptSeeds derives attempt try's seed and the three vertex-hash
// seeds stored in the image header; salt is the kind's Builder.Salt.
func AttemptSeeds(seed uint64, try int, salt uint64) (attemptSeed uint64, hseed [Arity]uint64) {
	attemptSeed = rng.Mix64(seed + uint64(try)*0x9e3779b97f4a7c15)
	for j := 0; j < Arity; j++ {
		hseed[j] = rng.Mix64(attemptSeed ^ uint64(j+1)*salt)
	}
	return
}

// attempt runs one seed attempt: a non-empty 2-core returns (nil,
// survivors, nil) so the retry loop can report the count. Hashing fans
// out chunk-wise (each key's vertices depend only on the key and the
// attempt seeds), and the back-substitution runs the edges of one
// round in parallel.
func (b *Builder) attempt(ctx context.Context, keys []uint64, seed uint64, try, subSize int, pool *parallel.Pool, kernel Kernel) (*Image, int, error) {
	attemptSeed, hseed := AttemptSeeds(seed, try, b.Salt)
	edges := make([]uint32, len(keys)*Arity)
	if err := pool.ForCtx(ctx, len(keys), 2048, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			vs := VertexTriple(hseed, subSize, keys[i])
			copy(edges[i*Arity:], vs[:])
		}
	}); err != nil {
		return nil, 0, err
	}
	ord, err := core.ParallelOrderEdgesCtx(ctx, subSize*Arity, Arity, edges, core.Options{Pool: pool})
	if err != nil {
		return nil, 0, err
	}
	if !ord.Empty() {
		return nil, ord.CoreEdges, nil
	}
	im := newImage(b.Kind, attemptSeed, hseed, len(keys), subSize)
	for t := ord.Rounds; t >= 1; t-- {
		seg := ord.RoundSegment(t)
		if err := pool.ForCtx(ctx, len(seg), 1024, func(_, lo, hi int) {
			kernel(im, edges, ord.FreeVertex, seg[lo:hi])
		}); err != nil {
			return nil, 0, err
		}
	}
	return im, 0, nil
}
