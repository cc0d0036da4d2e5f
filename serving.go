package repro

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bloomier"
	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/mphf"
	"repro/internal/parallel"
)

// StaticFunc is the serve-time contract of the peeling-built static
// structures: an immutable key → uint64 function. Both *MPHF (the
// assigned index) and *StaticMap (the stored value) satisfy it, whether
// freshly built or opened zero-copy from a flat image.
type StaticFunc interface {
	LookupValue(key uint64) uint64
}

// OpenMPHF validates data as a flat MPHF image (the bytes of
// (*MPHF).Bytes, an os.ReadFile, or a read-only mmap) and returns a
// zero-copy view over it: no array is decoded or copied, so data must
// stay immutable for the life of the function. Hostile or corrupt
// images are rejected with an error, never a panic; if data is a
// subslice whose base is not 8-byte aligned, repair it with
// AlignImage first.
func OpenMPHF(data []byte) (*MPHF, error) { return mphf.Open(data) }

// OpenStaticMap is OpenMPHF for flat static-map (Bloomier) images.
func OpenStaticMap(data []byte) (*StaticMap, error) { return bloomier.Open(data) }

// AlignImage returns data unchanged when its base is 8-byte aligned
// (always true for os.ReadFile and mmap results) and an aligned copy
// otherwise — the escape hatch for image bytes carved out of larger
// buffers, which the zero-copy loaders reject.
func AlignImage(data []byte) []byte { return layout.Aligned(data) }

// pinShards spreads lookup pin/unpin traffic over several padded
// counters so the lookup path scales past a single contended cache
// line. Must be a power of two.
const pinShards = 16

type pinShard struct {
	n atomic.Int64
	_ [56]byte // pad to a cache line
}

// staticGen is one installed generation of a StaticTable: the function,
// its generation number, an optional release hook (munmap, buffer
// recycling), and the epoch pin counters that gate reclamation.
type staticGen struct {
	gen     uint64
	fn      StaticFunc
	release func()
	pins    [pinShards]pinShard
}

// drained reports whether no lookup currently pins this generation.
func (g *staticGen) drained() bool {
	for i := range g.pins {
		if g.pins[i].n.Load() != 0 {
			return false
		}
	}
	return true
}

// StaticTable is a serving handle for one static function with
// atomic-swap rebuilds: lookups run lock-free against the current
// generation while Swap installs a rebuilt function underneath them.
// Correctness is epoch-style — every lookup pins the generation it
// resolved before touching its arrays and unpins after, and Swap
// reclaims (calls the release hook of) a retired generation only after
// its epoch has drained — so an in-flight lookup never observes a torn
// or unmapped image, without any lock on the lookup path.
//
// The zero value... is not useful; create with NewStaticTable. A table
// with no generation installed yet answers (0, false).
//
//	tbl := repro.NewStaticTable()
//	gen, _ := rt.RebuildStaticMap(ctx, tbl, keys, values, seed) // gen 1
//	v, ok := tbl.Lookup(k)                                      // lock-free
//	rt.RebuildStaticMap(ctx, tbl, keys, newValues, seed)        // gen 2, swap under load
type StaticTable struct {
	cur atomic.Pointer[staticGen]

	swapMu  sync.Mutex // serializes swaps; never touched by lookups
	lastGen uint64     // generation counter, under swapMu

	// Corrupt-image quarantine (SwapImage): how many candidate images
	// were rejected, and why the last one was. Both are atomics — a
	// rejection never touches swapMu, so a flood of bad images cannot
	// stall a concurrent good swap.
	rejects    atomic.Int64
	lastReject atomic.Pointer[error]
}

// NewStaticTable returns an empty serving handle; install the first
// generation with Swap (or Runtime.RebuildStaticMap / RebuildMPHF).
func NewStaticTable() *StaticTable { return &StaticTable{} }

// pinHint picks a pin shard. math/rand/v2's top-level generator draws
// from a per-P state, so concurrent readers spread across shards with
// no shared cache line on the hint itself — and no unsafe stack-address
// probing (the pin/unpin pair uses the one hint, so any spread works).
func pinHint() int {
	return int(rand.Uint64()) & (pinShards - 1)
}

// pin resolves and pins the current generation. The recheck after the
// increment makes the pin safe against a concurrent swap: if the
// recheck still observes g as current, the swap's pointer store had not
// yet happened, so the swapper's subsequent drain scan is guaranteed to
// see this pin (all accesses are sequentially consistent atomics);
// if it observes a newer generation, g may already be draining, so back
// out and retry on the new one.
func (t *StaticTable) pin(shard int) *staticGen {
	for {
		g := t.cur.Load()
		if g == nil {
			return nil
		}
		g.pins[shard].n.Add(1)
		if t.cur.Load() == g {
			return g
		}
		g.pins[shard].n.Add(-1)
	}
}

// Lookup serves one key from the current generation, lock-free: an
// atomic load, a pin/unpin pair on a sharded counter, and the static
// function's O(1) probe. ok is false only when no generation has been
// installed yet.
func (t *StaticTable) Lookup(key uint64) (value uint64, ok bool) {
	shard := pinHint()
	g := t.pin(shard)
	if g == nil {
		return 0, false
	}
	value = g.fn.LookupValue(key)
	g.pins[shard].n.Add(-1)
	return value, true
}

// LookupBatch serves keys[i] into out[i] for all i under a single
// pin/unpin pair — the batched hot path: one epoch entry amortized over
// the whole batch, and every answer drawn from one consistent
// generation (whose number is returned). out must be at least as long
// as keys. ok is false only when no generation is installed.
func (t *StaticTable) LookupBatch(keys []uint64, out []uint64) (gen uint64, ok bool) {
	shard := pinHint()
	g := t.pin(shard)
	if g == nil {
		return 0, false
	}
	for i, k := range keys {
		out[i] = g.fn.LookupValue(k)
	}
	g.pins[shard].n.Add(-1)
	return g.gen, true
}

// Generation returns the current generation number (0 when empty).
func (t *StaticTable) Generation() uint64 {
	if g := t.cur.Load(); g != nil {
		return g.gen
	}
	return 0
}

// Swap atomically installs fn as the table's next generation and
// returns its generation number. Lookups started after the swap see fn
// immediately; lookups in flight finish against the old generation.
// Swap then waits for the old generation's epoch to drain and calls its
// release hook (registered by the Swap that installed it) — the point
// where an mmap'd image can be safely munmap'd or a buffer recycled.
// release may be nil. Concurrent Swaps serialize; lookups never block.
func (t *StaticTable) Swap(fn StaticFunc, release func()) uint64 {
	t.swapMu.Lock()
	t.lastGen++
	g := &staticGen{gen: t.lastGen, fn: fn, release: release}
	old := t.cur.Swap(g)
	t.swapMu.Unlock()
	if old != nil {
		waitDrain(old)
		if old.release != nil {
			old.release()
		}
	}
	return g.gen
}

// openStatic validates data as a flat image and returns the matching
// zero-copy static function (MPHF or static map, by the image's kind
// tag) — the kind-dispatching loader behind SwapImage.
func openStatic(data []byte) (StaticFunc, error) {
	im, err := layout.Open(data)
	if err != nil {
		return nil, err
	}
	switch im.Kind {
	case layout.KindMPHF:
		return mphf.FromImage(im)
	case layout.KindBloomier:
		return bloomier.FromImage(im)
	default:
		return nil, fmt.Errorf("%w: kind %d", layout.ErrBadImage, uint16(im.Kind))
	}
}

// SwapImage validates data as a flat image (either kind) and, only if
// the header, bounds, and checksum all verify, installs the zero-copy
// view as the table's next generation — the crash-safe ingestion path
// for images arriving from disk or the network. A corrupt, truncated,
// or torn image is quarantined: SwapImage returns the validation error
// (matching layout.ErrBadImage / layout.ErrUnaligned), the previous
// generation keeps serving untouched, and the rejection is counted
// (SwapRejections). data must stay immutable for the life of the
// generation; release runs when the generation is eventually retired
// and drained, exactly as in Swap.
func (t *StaticTable) SwapImage(data []byte, release func()) (uint64, error) {
	if faultinject.Enabled {
		// Failpoint: the callback may corrupt the candidate bytes,
		// exercising the quarantine below.
		faultinject.Fire(faultinject.ServingSwap, data)
	}
	fn, err := openStatic(data)
	if err != nil {
		t.rejects.Add(1)
		t.lastReject.Store(&err)
		return 0, err
	}
	return t.Swap(fn, release), nil
}

// SwapRejections reports the corrupt-image quarantine state: how many
// SwapImage candidates failed validation over the table's lifetime, and
// the most recent rejection's error (nil if none). Serving layers alarm
// on a rising count — it means a builder or transport is handing the
// server bad images — while lookups continue against the last good
// generation.
func (t *StaticTable) SwapRejections() (count int64, last error) {
	if p := t.lastReject.Load(); p != nil {
		last = *p
	}
	return t.rejects.Load(), last
}

// waitDrain spins until no lookup pins g anymore. Lookups hold their
// pin only for one O(1) probe (or one batch), so the wait is short;
// back off to the scheduler, then to sleeps, rather than burn a core.
func waitDrain(g *staticGen) {
	for spin := 0; !g.drained(); spin++ {
		if spin < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// Lookup serves one key from a StaticTable. It is the facade spelling
// of tbl.Lookup — a lock-free read against the current generation, with
// no admission control or context: serving lookups are the hot path the
// Runtime's job machinery must never sit in front of.
func (rt *Runtime) Lookup(tbl *StaticTable, key uint64) (uint64, bool) {
	return tbl.Lookup(key)
}

// Swap installs fn as tbl's next generation as an admitted Runtime job
// (so Shutdown drains an in-progress swap) and returns the new
// generation number. The job includes waiting out the old generation's
// epoch and running its release hook; see StaticTable.Swap. fn is
// typically a freshly built *StaticMap / *MPHF or one opened zero-copy
// from an image; release is where an mmap of the outgoing image gets
// unmapped.
func (rt *Runtime) Swap(ctx context.Context, tbl *StaticTable, fn StaticFunc, release func()) (uint64, error) {
	return jobResult(ctx, rt, func(context.Context, *parallel.Pool) (uint64, error) {
		return tbl.Swap(fn, release), nil
	})
}

// SwapImage validates data as a flat image and installs it as tbl's
// next generation as an admitted Runtime job, with the same corrupt-
// image quarantine as StaticTable.SwapImage: a bad image returns an
// error (matching layout.ErrBadImage / layout.ErrUnaligned), leaves the
// table serving its current generation, and is counted in
// tbl.SwapRejections.
func (rt *Runtime) SwapImage(ctx context.Context, tbl *StaticTable, data []byte, release func()) (uint64, error) {
	return jobResult(ctx, rt, func(context.Context, *parallel.Pool) (uint64, error) {
		return tbl.SwapImage(data, release)
	})
}

// RebuildStaticMap builds a static map over (keys, values) as an
// ordinary pool job — concurrent with every lookup and every other job
// on the Runtime — and atomically swaps it into tbl, returning the new
// generation number. Lookups are served continuously throughout: the
// old generation answers until the instant of the swap, then is
// reclaimed once its in-flight lookups drain. Cancellation is checked
// at every build round barrier; a canceled rebuild leaves tbl on its
// current generation.
func (rt *Runtime) RebuildStaticMap(ctx context.Context, tbl *StaticTable, keys, values []uint64, seed uint64) (uint64, error) {
	sm, err := rt.BuildStaticMap(ctx, keys, values, seed)
	if err != nil {
		return 0, err
	}
	return rt.Swap(ctx, tbl, sm, nil)
}

// RebuildMPHF is RebuildStaticMap for minimal perfect hash functions:
// lookups through tbl then return the assigned index as a uint64.
func (rt *Runtime) RebuildMPHF(ctx context.Context, tbl *StaticTable, keys []uint64, seed uint64) (uint64, error) {
	f, err := rt.BuildMPHF(ctx, keys, seed)
	if err != nil {
		return 0, err
	}
	return rt.Swap(ctx, tbl, f, nil)
}
