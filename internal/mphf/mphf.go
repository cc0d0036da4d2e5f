// Package mphf builds minimal perfect hash functions with the BDZ
// construction (Botelho-Pagh-Ziviani), the classic "peeling to an empty
// 2-core" application: keys become edges of a random 3-partite 3-uniform
// hypergraph over ~1.23·m vertices, the graph is peeled (k = 2), and g
// values are assigned in reverse peel order so that every key selects a
// distinct vertex. Construction succeeds on the first try w.h.p. because
// the edge density 1/γ = 1/1.23 ≈ 0.813 sits below the paper's threshold
// c*(2,3) ≈ 0.818. The peel runs on the hashed edge list itself
// (core.ParallelOrderEdgesCtx): no incidence index is built.
//
// Build-time and serve-time are split by the versioned flat layout
// (internal/layout): the builder writes its g values, used bitmap, and
// rank directory directly into a contiguous sealed image, and MPHF is a
// thin read-only view over such an image — the same lookup code path
// whether the image came from a fresh build, Open of marshaled bytes,
// or an mmap'd file.
package mphf

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/parallel"
)

// DefaultGamma is the standard vertex/key ratio: edge density 1/1.23 is
// just below c*(2,3) ≈ 0.818, so peeling succeeds w.h.p.
const DefaultGamma = 1.23

// arity is fixed: BDZ uses 3 hashes (γ would need to exceed 1/0.772 ≈ 1.295
// table growth for r = 4 with no lookup benefit).
const arity = layout.Arity

// MPHF is an immutable minimal perfect hash function over the key set it
// was built from: Lookup maps each build key to a distinct value in
// [0, Keys()); unknown keys map to arbitrary values (add an external
// fingerprint if membership matters). It is a read-only view over a
// flat layout image — Bytes serializes it with zero copies, and Open /
// FromImage reconstruct an identical function from those bytes.
type MPHF struct {
	im *layout.Image
}

// ErrBuildFailed is returned when every seed attempt left a non-empty
// 2-core, which for distinct keys at γ ≥ 1.23 is astronomically
// unlikely (duplicate keys return ErrDuplicateKeys instead). The
// returned error wraps it together with the final attempt's survivor
// count ("N edges left in 2-core after attempt T"), so errors.Is(err,
// ErrBuildFailed) works and the message says how close the last attempt
// came — the number to look at when tuning gamma or maxTries.
var ErrBuildFailed = errors.New("mphf: construction failed on all attempts")

// ErrDuplicateKeys is returned when the key set contains duplicates.
// Two equal keys hash to identical edges, which always sit in the
// 2-core, so only a build whose first attempt fails checks for them.
var ErrDuplicateKeys = errors.New("mphf: duplicate keys")

// builder fixes the MPHF's part of the shared layout build driver.
var builder = &layout.Builder{
	Kind:             layout.KindMPHF,
	Salt:             0xbf58476d1ce4e5b9,
	Failpoint:        faultinject.MPHFAttempt,
	ErrBuildFailed:   ErrBuildFailed,
	ErrDuplicateKeys: ErrDuplicateKeys,
}

// BuildCtx constructs an MPHF for the distinct keys using the given
// vertex/key ratio gamma (use DefaultGamma) and an initial seed; it
// retries with derived seeds up to maxTries times (10 is plenty). Every
// construction phase — per-key edge hashing, the ordered peel on the
// flat edge list, and the round-parallel g-value assignment — runs on
// pool (layout.Builder.BuildCtx), and the function is byte-identical at
// every pool size. All per-build state is owned by the call, so many
// builds may share one pool. Cancellation is checked at every round
// barrier of every attempt; on cancellation it returns (nil, ctx.Err()).
//
//peelvet:deterministic
func BuildCtx(ctx context.Context, keys []uint64, gamma float64, seed uint64, maxTries int, pool *parallel.Pool) (*MPHF, error) {
	im, err := builder.BuildCtx(ctx, keys, gamma, seed, maxTries, pool, assignG)
	if err != nil {
		return nil, err
	}
	// Rank directory: prefix popcounts per word for O(1) rank.
	rank := im.Rank
	rank[0] = 0
	for i, w := range im.Used {
		rank[i+1] = rank[i] + uint32(bits.OnesCount64(w))
	}
	im.Marshal() // seal: checksum now covers the final arrays
	return &MPHF{im: im}, nil
}

// assignG is the MPHF back-substitution kernel: for edge e freed by
// vertex v at position p, g[v] = (p − g[u1] − g[u2]) mod 3 makes the
// lookup rule (g[v0]+g[v1]+g[v2]) mod 3 == p hold. The used bitmap is
// the only shared word array, updated with an atomic OR. Unassigned
// vertices keep 0.
func assignG(im *layout.Image, edges, free, peeled []uint32) {
	gv, used := im.G, im.Used
	for _, e := range peeled {
		fv := free[e]
		sum := 0
		p := -1
		for pos, u := range edges[int(e)*arity : int(e)*arity+arity] {
			if u == fv {
				p = pos
			} else {
				sum += int(gv[u])
			}
		}
		gv[fv] = uint8(((p-sum)%arity + arity) % arity)
		atomic.OrUint64(&used[fv>>6], 1<<(uint(fv)&63))
	}
}

// FromImage wraps an already-open flat image as an MPHF view. The image
// must have been produced by this package's builder (or validated by
// layout.Open); its bytes must stay immutable for the life of the
// function.
func FromImage(im *layout.Image) (*MPHF, error) {
	if im == nil || im.Kind != layout.KindMPHF {
		return nil, fmt.Errorf("mphf: image kind is not %v", layout.KindMPHF)
	}
	return &MPHF{im: im}, nil
}

// Open validates data as a flat MPHF image and returns a zero-copy
// read-only view over it: no array is decoded or copied, so data must
// stay immutable (and mapped) for the life of the function. Corrupt or
// hostile images return layout.ErrBadImage; unaligned slices return
// layout.ErrUnaligned (repair with layout.Aligned).
func Open(data []byte) (*MPHF, error) {
	im, err := layout.Open(data)
	if err != nil {
		return nil, err
	}
	return FromImage(im)
}

// Image returns the function's flat image.
func (f *MPHF) Image() *layout.Image { return f.im }

// Bytes returns the function's sealed flat image without copying — the
// exact bytes Open accepts. The slice aliases the function's serve
// arrays; treat it as read-only.
func (f *MPHF) Bytes() []byte { return f.im.Bytes() }

// Seed returns the successful build attempt's seed.
func (f *MPHF) Seed() uint64 { return f.im.Seed }

// Keys returns the number of keys the function was built over.
func (f *MPHF) Keys() int { return f.im.Keys }

// Vertices returns the internal table size (≈ γ·m); the bits-per-key cost
// is 2·Vertices()/Keys() plus the rank directory.
func (f *MPHF) Vertices() int { return f.im.Vertices() }

// vertices returns the three vertices of key x, one per part.
func (f *MPHF) vertices(x uint64) [arity]uint32 {
	return layout.VertexTriple(f.im.HSeed, f.im.SubSize, x)
}

// Lookup returns the index in [0, Keys()) assigned to key x. For keys not
// in the build set the result is arbitrary (but in range for any x whose
// selected vertex happens to be used; otherwise it is clamped).
func (f *MPHF) Lookup(x uint64) int {
	im := f.im
	vs := layout.VertexTriple(im.HSeed, im.SubSize, x)
	p := (int(im.G[vs[0]]) + int(im.G[vs[1]]) + int(im.G[vs[2]])) % arity
	v := vs[p]
	// rank(v): used vertices strictly before v, plus clamping for
	// foreign keys that select an unused vertex.
	word, bit := v>>6, uint(v)&63
	r := int(im.Rank[word]) + bits.OnesCount64(im.Used[word]&((1<<bit)-1))
	if r >= im.Keys {
		r = im.Keys - 1
	}
	return r
}

// LookupValue adapts Lookup to the uint64-valued static-function
// serving contract (repro.StaticFunc): the assigned index as a uint64.
func (f *MPHF) LookupValue(x uint64) uint64 { return uint64(f.Lookup(x)) }
