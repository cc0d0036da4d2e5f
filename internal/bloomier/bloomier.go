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

	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/parallel"
)

// DefaultGamma is the slots-per-key overhead, chosen just below the
// peeling threshold like the MPHF construction.
const DefaultGamma = 1.23

const arity = layout.Arity

// Filter is an immutable key → uint64 map built by BuildCtx: a read-only
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

// builder fixes the static map's part of the shared layout build
// driver.
var builder = &layout.Builder{
	Kind:             layout.KindBloomier,
	Salt:             0x94d049bb133111eb,
	Failpoint:        faultinject.BloomierAttempt,
	ErrBuildFailed:   ErrBuildFailed,
	ErrDuplicateKeys: ErrDuplicateKeys,
}

// BuildCtx constructs a filter mapping keys[i] → values[i]. Keys must
// be distinct. gamma is the slot/key ratio (use DefaultGamma); maxTries
// bounds seed retries. Every construction phase — per-key edge hashing,
// the ordered peel on the flat edge list, and the round-parallel
// back-substitution — runs on pool (layout.Builder.BuildCtx), and the
// filter is byte-identical at every pool size. All per-build state is
// owned by the call, so many builds may share one pool. Cancellation is
// checked at every round barrier of every attempt; on cancellation it
// returns (nil, ctx.Err()).
//
//peelvet:deterministic
func BuildCtx(ctx context.Context, keys, values []uint64, gamma float64, seed uint64, maxTries int, pool *parallel.Pool) (*Filter, error) {
	if len(keys) != len(values) {
		return nil, fmt.Errorf("bloomier: %d keys but %d values", len(keys), len(values))
	}
	// slots[v0] ^ slots[v1] ^ slots[v2] = value for every key: the free
	// vertex's slot takes the value XOR the two final slots.
	im, err := builder.BuildCtx(ctx, keys, gamma, seed, maxTries, pool, func(im *layout.Image, edges, free, peeled []uint32) {
		slots := im.Slots
		for _, e := range peeled {
			fv := free[e]
			acc := values[e]
			for _, u := range edges[int(e)*arity : int(e)*arity+arity] {
				if u != fv {
					acc ^= slots[u]
				}
			}
			slots[fv] = acc
		}
	})
	if err != nil {
		return nil, err
	}
	im.Marshal() // seal: checksum now covers the final slot array
	return &Filter{im: im}, nil
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
