package iblt

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/faultinject"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// ErrDecodeIncomplete is the sentinel matched (errors.Is) by Reconcile
// errors whose difference table failed to decode completely — the
// protocol's probabilistic failure mode, hit when the strata estimate
// undersized the table for the true difference. It is retryable:
// rebuild with more headroom (the repro Runtime's Policy does this
// automatically).
var ErrDecodeIncomplete = errors.New("iblt: reconciliation table decode incomplete")

// StrataEstimator estimates the size of the symmetric difference between
// two key sets without knowing it in advance — the component that makes
// IBLT set reconciliation a complete protocol (Eppstein, Goodrich,
// Uyeda, Varghese, SIGCOMM 2011). Stratum i holds an IBLT of the keys
// whose hash has exactly i leading zero bits, i.e. a 2^{-(i+1)} sample;
// decoding the subtracted strata from the deepest up and scaling by the
// sampling rate estimates |A △ B|, which then sizes the real
// reconciliation IBLT.
type StrataEstimator struct {
	strata []*Table
	seed   uint64
}

// strataDepth covers differences up to ~2^32 keys; each stratum is small
// (fixed 80 cells), so a full estimator costs ~60 KiB on the wire.
const (
	strataDepth     = 32
	strataCells     = 80
	strataTableR    = 3
	strataScaleSeed = 0x9ddfea08eb382d69
)

// NewStrataEstimator returns an empty estimator. Two estimators must
// share (seed) to be comparable.
func NewStrataEstimator(seed uint64) *StrataEstimator {
	e := &StrataEstimator{strata: make([]*Table, strataDepth), seed: seed}
	for i := range e.strata {
		e.strata[i] = New(strataCells, strataTableR, rng.Mix64(seed+uint64(i)*0x9e3779b97f4a7c15))
	}
	return e
}

// stratumOf assigns a key to the stratum equal to the number of leading
// zeros of an independent hash (capped at the deepest stratum).
func (e *StrataEstimator) stratumOf(x uint64) int {
	h := rng.Mix64(x ^ e.seed ^ strataScaleSeed)
	s := 0
	for s < strataDepth-1 && h&(1<<63) == 0 {
		s++
		h <<= 1
	}
	return s
}

// Insert adds a key to its stratum.
func (e *StrataEstimator) Insert(x uint64) {
	e.strata[e.stratumOf(x)].Insert(x)
}

// InsertAll adds keys (sequentially; estimators are tiny).
func (e *StrataEstimator) InsertAll(keys []uint64) {
	for _, k := range keys {
		e.Insert(k)
	}
}

// InsertAllWithPool adds keys in parallel on an explicit worker pool:
// each worker hashes its chunk's keys to their strata and applies them
// with atomic cell updates, so the stratified insert pass — the serial
// prefix of every reconciliation request — scales with the bulk-insert
// paths instead of serializing in front of them. The tables are tiny
// (concurrent updates contend on few cells), but the per-key hashing,
// which dominates, fans out fully. The resulting estimator is
// cell-for-cell identical to a serial InsertAll (XOR updates commute).
func (e *StrataEstimator) InsertAllWithPool(keys []uint64, pool *parallel.Pool) {
	_ = e.insertAllCtx(context.Background(), keys, pool)
}

// insertAllCtx is InsertAllWithPool with cooperative cancellation; on a
// non-nil return the estimator is partially filled and must be
// discarded.
func (e *StrataEstimator) insertAllCtx(ctx context.Context, keys []uint64, pool *parallel.Pool) error {
	return pool.ForCtx(ctx, len(keys), 2048, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			x := keys[i]
			t := e.strata[e.stratumOf(x)]
			t.checkKey(x)
			t.applyAtomic(x, 1)
		}
	})
}

// Subtract replaces e with the stratum-wise difference e − other. Panics
// if the estimators were built with different seeds.
func (e *StrataEstimator) Subtract(other *StrataEstimator) {
	if e.seed != other.seed {
		panic("iblt: subtracting incompatible strata estimators")
	}
	for i := range e.strata {
		e.strata[i].Subtract(other.strata[i])
	}
}

// Estimate returns an estimate of the symmetric difference size encoded
// in a subtracted estimator. It decodes strata from the deepest
// (sparsest) upward, summing decoded difference keys until a stratum
// fails to decode, then scales by the sampling rate of the last decoded
// stratum — the standard strata-estimator rule.
func (e *StrataEstimator) Estimate() int {
	count := 0
	for i := strataDepth - 1; i >= 0; i-- {
		added, removed, ok := e.strata[i].Clone().Decode()
		if !ok {
			// Everything below stratum i was counted; scale for the
			// un-decodable strata: strata 0..i hold fraction 1 - 2^{-(i+1)}
			// ... the conventional estimator simply scales the running
			// count by 2^{i+1}.
			return count << uint(i+1)
		}
		count += len(added) + len(removed)
	}
	return count
}

// WireSize returns the serialized size of the estimator in bytes.
func (e *StrataEstimator) WireSize() int {
	total := 8 // seed header
	for _, s := range e.strata {
		total += s.WireSize()
	}
	return total
}

// MarshalBinary implements encoding.BinaryMarshaler: an 8-byte seed
// followed by the strata tables in order, each in the Table wire format.
func (e *StrataEstimator) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8, e.WireSize())
	binary.LittleEndian.PutUint64(out, e.seed)
	for _, s := range e.strata {
		b, err := s.MarshalBinary()
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Estimators now
// arrive off the wire (the reconciliation server's Estimate op), so the
// parser is strict about more than framing: every stratum must carry the
// canonical geometry (strataCells cells, r = strataTableR) and the seed
// derived from the estimator seed — a stratum whose header re-declares a
// different shape would otherwise parse cleanly here and then panic
// inside Subtract, a remotely triggerable crash.
func (e *StrataEstimator) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("%w: short strata header", ErrBadWireFormat)
	}
	seed := binary.LittleEndian.Uint64(data)
	fresh := NewStrataEstimator(seed)
	off := 8
	for i := range fresh.strata {
		want := fresh.strata[i]
		size := want.WireSize()
		if off+size > len(data) {
			return fmt.Errorf("%w: truncated stratum %d", ErrBadWireFormat, i)
		}
		var st Table
		if err := st.UnmarshalBinary(data[off : off+size]); err != nil {
			return err
		}
		if st.r != want.r || st.subSize != want.subSize || st.seed != want.seed {
			return fmt.Errorf("%w: stratum %d geometry (r=%d subSize=%d seed=%#x), want canonical (r=%d subSize=%d seed=%#x)",
				ErrBadWireFormat, i, st.r, st.subSize, st.seed, want.r, want.subSize, want.seed)
		}
		fresh.strata[i] = &st
		off += size
	}
	if off != len(data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadWireFormat, len(data)-off)
	}
	*e = *fresh
	return nil
}

// Seed returns the estimator's base seed; two estimators must share it
// to be comparable (Subtract / Estimate).
func (e *StrataEstimator) Seed() uint64 { return e.seed }

// MaxHeadroom caps the safety headroom ReconcileCtx honors. headroom
// multiplies the difference-table allocation, so an unbounded value —
// e.g. lifted straight off a wire request — would turn a small request
// into an arbitrarily large server-side allocation. 16 is far above any
// useful oversizing (the decode threshold needs ~1.22; Policy
// escalation caps at 4 by default); larger values clamp here and are
// rejected outright by the wire server's request parser.
const MaxHeadroom = 16.0

// ReconcileCtx runs the full two-message protocol between local and
// remote key sets represented by their estimators and source sets: it
// estimates the difference |A △ B| from the subtracted estimators, sizes
// a reconciliation IBLT with the given safety headroom (cells ≈
// headroom × estimate, headroom ≥ 1.25 recommended to stay below
// c*(2,r)), and decodes. Returns the two difference sides.
//
// This is a protocol harness — real deployments would ship the
// estimator and table over a network; the data flow and byte counts are
// identical. Every phase runs on pool: the strata-estimator inserts, the
// bulk table inserts, and the difference-table frontier decode. All
// per-request state is owned by the call, so many reconciliations may
// run concurrently on one shared pool. The returned difference sides
// are sorted, so the output is identical at every pool size (the
// parallel decoder's recovery order is scheduling-dependent; the
// recovered *set* is not, by peeling confluence).
//
// Cancellation is checked between protocol phases, inside the bulk
// insert passes, and at the decode's subround barriers. On cancellation
// it returns ctx.Err() and all partial protocol state is abandoned. headroom is clamped into
// [1.25, MaxHeadroom], and the difference table is never sized beyond
// what the two input sets themselves justify, so untrusted parameters
// cannot drive an allocation disproportionate to the keys provided.
func ReconcileCtx(ctx context.Context, localKeys, remoteKeys []uint64, seed uint64, headroom float64, pool *parallel.Pool) (onlyLocal, onlyRemote []uint64, wireBytes int, err error) {
	// !(>= 1.25) rather than < 1.25 so NaN (every comparison false)
	// lands on the floor instead of slipping through.
	if !(headroom >= 1.25) {
		headroom = 1.25
	}
	if headroom > MaxHeadroom {
		headroom = MaxHeadroom
	}
	// Round 1: exchange strata estimators.
	le := NewStrataEstimator(seed)
	if err := le.insertAllCtx(ctx, localKeys, pool); err != nil {
		return nil, nil, 0, err
	}
	re := NewStrataEstimator(seed)
	if err := re.insertAllCtx(ctx, remoteKeys, pool); err != nil {
		return nil, nil, 0, err
	}
	wireBytes = re.WireSize()
	le.Subtract(re)
	est := le.Estimate()
	if est == 0 {
		est = 1
	}
	// The symmetric difference cannot exceed the two sets combined, so an
	// estimate extrapolated past that bound (a deep stratum scaled by
	// 2^i — count<<32 can even wrap negative) never justifies a larger
	// table: the cap keeps the allocation proportional to the keys the
	// caller actually supplied.
	if ub := len(localKeys) + len(remoteKeys); est < 0 || est > ub {
		est = ub
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, wireBytes, err
	}

	// Round 2: exchange an IBLT sized for the estimated difference.
	cells := int(headroom * float64(est) * 1.3) // /c*(2,3)≈0.818 ⇒ ×1.22, plus margin
	if cells < 48 {
		cells = 48
	}
	lt := New(cells, 3, rng.Mix64(seed^0x2545f4914f6cdd1d))
	if err := lt.InsertAllCtx(ctx, localKeys, pool); err != nil {
		return nil, nil, wireBytes, err
	}
	rt := New(cells, 3, rng.Mix64(seed^0x2545f4914f6cdd1d))
	if err := rt.InsertAllCtx(ctx, remoteKeys, pool); err != nil {
		return nil, nil, wireBytes, err
	}
	wireBytes += rt.WireSize()
	lt.Subtract(rt)
	res, err := lt.DecodeParallelFrontierCtx(ctx, pool)
	if err != nil {
		return nil, nil, wireBytes, err
	}
	forceFail := false
	if faultinject.Enabled {
		// Failpoint: setting the *bool forces this reconciliation round
		// to report an incomplete decode.
		faultinject.Fire(faultinject.ReconcileDecode, &forceFail)
	}
	if !res.Complete || forceFail {
		return nil, nil, wireBytes, fmt.Errorf("%w (estimate %d, cells %d)", ErrDecodeIncomplete, est, cells)
	}
	slices.Sort(res.Added)
	slices.Sort(res.Removed)
	return res.Added, res.Removed, wireBytes, nil
}
