package repro

import (
	"context"
	"errors"

	"repro/internal/bloomier"
	"repro/internal/core"
	"repro/internal/erasure"
	"repro/internal/hypergraph"
	"repro/internal/iblt"
	"repro/internal/mphf"
	"repro/internal/parallel"
	"repro/internal/recurrence"
	"repro/internal/rng"
	"repro/internal/threshold"
	"repro/internal/xorsat"
)

// Hypergraph is an immutable r-uniform hypergraph with CSR incidence; see
// the generator functions below.
type Hypergraph = hypergraph.Hypergraph

// PeelResult reports rounds, per-round survivor counts, and the residual
// k-core of a peeling run.
type PeelResult = core.Result

// SeqPeelResult additionally carries the peel order and the edge → vertex
// orientation produced by sequential peeling.
type SeqPeelResult = core.SeqResult

// OrderedPeelResult carries the round-major peel order and the
// minimum-endpoint edge orientation produced by the ordered parallel
// peel — the parallel replacement for SeqPeelResult's artifacts,
// bit-identical at every worker count. Reverse round-major order is a
// valid elimination order for k = 2 with full parallelism inside a
// round; see core.OrderedResult.
type OrderedPeelResult = core.OrderedResult

// PeelOptions configures the parallel peelers (scan policy, round cap).
type PeelOptions = core.Options

// Scan policies for PeelOptions.Scan: FrontierScan tracks only vertices
// whose degree changed (work-efficient); FullScan re-examines every
// vertex each round (the GPU strategy).
const (
	FrontierScan = core.Frontier
	FullScan     = core.FullScan
)

// IBLT is an Invertible Bloom Lookup Table with r subtables; see NewIBLT.
type IBLT = iblt.Table

// IBLTParallelResult reports a parallel IBLT recovery.
type IBLTParallelResult = iblt.ParallelResult

// ErasureCode is a Biff-style peeling erasure code; see NewErasureCode.
type ErasureCode = erasure.Code

// ErasureCell is one check symbol of an ErasureCode block.
type ErasureCell = erasure.Cell

// MPHF is a minimal perfect hash function built by peeling; see BuildMPHF.
type MPHF = mphf.MPHF

// XORSATInstance is a system of XOR equations; see NewXORSATInstance.
type XORSATInstance = xorsat.Instance

// RecurrenceParams evaluates the paper's idealized recurrences (survivor
// fractions λ_t, densities β_t, subtable variants) for a (k, r, c)
// ensemble.
type RecurrenceParams = recurrence.Params

// NewUniformHypergraph returns the paper's G^r_{n,m} model: m edges, each
// a uniform r-subset of [0, n), generated deterministically from seed.
func NewUniformHypergraph(n, m, r int, seed uint64) *Hypergraph {
	return hypergraph.Uniform(n, m, r, rng.New(seed))
}

// NewBinomialHypergraph returns the paper's G^r_c model on n vertices
// with edge density c (edge count Poisson(cn)).
func NewBinomialHypergraph(n int, c float64, r int, seed uint64) *Hypergraph {
	return hypergraph.Binomial(n, c, r, rng.New(seed))
}

// NewPartitionedHypergraph returns the Appendix B model: n vertices (n
// divisible by r) split into r subtables, each edge containing one
// uniform vertex per subtable.
func NewPartitionedHypergraph(n, m, r int, seed uint64) *Hypergraph {
	return hypergraph.Partitioned(n, m, r, rng.New(seed))
}

// Peel runs the classic sequential greedy peel to the k-core, returning
// the peel order and edge orientation along with the core.
func Peel(g *Hypergraph, k int) *SeqPeelResult { return core.Sequential(g, k) }

// PeelOrdered runs the ordered round-synchronous parallel peel: the
// same rounds and k-core as Runtime.Peel, plus the peel order and edge
// orientation that Peel (sequential) produces — but computed in
// parallel, deterministically at every worker count. It runs on the
// package-default Runtime; servers should use Runtime.PeelOrdered for
// cancellation and admission control.
func PeelOrdered(g *Hypergraph, k int) *OrderedPeelResult {
	res, err := DefaultRuntime().PeelOrdered(context.Background(), g, k, PeelOptions{})
	if err != nil {
		// Only reachable if the default Runtime was shut down; keep the
		// cannot-fail contract on the self-healing default pool.
		return core.ParallelOrder(g, k, core.Options{})
	}
	return res
}

// Threshold returns the k-core emptiness threshold c*(k,r) of Equation
// (2.1) and its argmin x*. Below c*(k,r) peeling empties the core w.h.p.
func Threshold(k, r int) (cstar, xstar float64) { return threshold.Threshold(k, r) }

// CoreFraction returns the limiting fraction of vertices in the k-core at
// density c (zero below the threshold).
func CoreFraction(k, r int, c float64) float64 { return threshold.CoreFraction(k, r, c) }

// PredictRounds returns the idealized number of parallel peeling rounds
// for an n-vertex instance at parameters p, and whether the recurrence
// terminates within maxRounds (it does not above the threshold).
// Parameters outside the paper's scope (k or r < 2, negative density)
// are reported as an error, never a panic.
func PredictRounds(p RecurrenceParams, n float64, maxRounds int) (rounds int, ok bool, err error) {
	return p.PredictRounds(n, maxRounds)
}

// NewIBLT returns an empty Invertible Bloom Lookup Table with at least
// cells cells split into r subtables.
func NewIBLT(cells, r int, seed uint64) *IBLT { return iblt.New(cells, r, seed) }

// NewErasureCode returns a Biff-style erasure code with the given number
// of check cells and r hash positions per symbol (r in [3, 8]).
func NewErasureCode(checkCells, r int, seed uint64) *ErasureCode {
	return erasure.NewCode(checkCells, r, seed)
}

// BuildMPHF builds a minimal perfect hash function over distinct keys
// using γ = 1.23 table overhead (edge density just below c*(2,3)). It
// runs on the package-default Runtime; servers should use
// Runtime.BuildMPHF for cancellation and admission control.
func BuildMPHF(keys []uint64, seed uint64) (*MPHF, error) {
	f, err := DefaultRuntime().BuildMPHF(context.Background(), keys, seed)
	if errors.Is(err, ErrRuntimeClosed) {
		// Only reachable if the default Runtime was shut down; build on
		// the self-healing default pool instead, as PeelOrdered does.
		return mphf.BuildCtx(context.Background(), keys, mphf.DefaultGamma, seed, 10, parallel.Default())
	}
	return f, err
}

// ErrMPHFBuildFailed is the sentinel wrapped by MPHF build errors when
// every seed attempt left a non-empty 2-core; the error message carries
// the last attempt's survivor count ("N edges left in 2-core after
// attempt T") for maxTries/γ tuning. Match with errors.Is.
var ErrMPHFBuildFailed = mphf.ErrBuildFailed

// ErrStaticMapBuildFailed is the corresponding sentinel for static-map
// (Bloomier) builds.
var ErrStaticMapBuildFailed = bloomier.ErrBuildFailed

// StaticMap is a Bloomier-style static key → value map built by peeling;
// see BuildStaticMap.
type StaticMap = bloomier.Filter

// BuildStaticMap builds an immutable map from distinct keys to values in
// ~1.23 slots per key, with three-hash XOR lookups (Bloomier filter /
// static function retrieval — reference [4] of the paper). The build is
// byte-identical at every worker count; serialize it with
// (*StaticMap).Bytes and reload it zero-copy with OpenStaticMap.
func BuildStaticMap(keys, values []uint64, seed uint64) (*StaticMap, error) {
	return bloomier.BuildCtx(context.Background(), keys, values, bloomier.DefaultGamma, seed, 10, parallel.Default())
}

// PeelDepths returns, per vertex, the parallel round in which it would be
// peeled (core.InCore = -1 for k-core members) — the structural "peeling
// wave" the branching-process analysis models.
func PeelDepths(g *Hypergraph, k int) []int32 { return core.Depths(g, k) }

// CorenessAll returns each vertex's coreness: the largest k for which the
// vertex survives in the k-core.
func CorenessAll(g *Hypergraph) []int32 { return core.Coreness(g) }

// NewRandomXORSAT returns a random r-XORSAT instance with m equations
// over n variables.
func NewRandomXORSAT(n, m, r int, seed uint64) *XORSATInstance {
	return xorsat.Random(n, m, r, rng.New(seed))
}

// ReconcileSets runs the full two-message IBLT set-reconciliation
// protocol (strata-estimator sizing + subtracted-table decode) between
// two key sets, returning each side's private keys and the total bytes a
// networked deployment would transfer. headroom >= 1.25 oversizes the
// difference table for safety. It runs on the package-default Runtime;
// servers should use Runtime.Reconcile for cancellation and admission
// control.
func ReconcileSets(local, remote []uint64, seed uint64, headroom float64) (onlyLocal, onlyRemote []uint64, wireBytes int, err error) {
	onlyLocal, onlyRemote, wireBytes, err = DefaultRuntime().Reconcile(context.Background(), local, remote, seed, headroom)
	if errors.Is(err, ErrRuntimeClosed) {
		// See BuildMPHF: run on the default pool after a default-
		// Runtime shutdown.
		return iblt.ReconcileCtx(context.Background(), local, remote, seed, headroom, parallel.Default())
	}
	return onlyLocal, onlyRemote, wireBytes, err
}

// SolveXORSAT solves an instance by peeling plus Gaussian elimination on
// the 2-core; it returns xorsat.ErrUnsatisfiable for inconsistent
// systems.
func SolveXORSAT(in *XORSATInstance) ([]uint8, error) {
	assign, _, err := in.Solve()
	return assign, err
}

// WorkerPool is a persistent set of worker goroutines shared by peeling
// jobs. A Runtime owns one (Runtime.Pool exposes it) and hands it to
// every Runtime.Go job.
type WorkerPool = parallel.Pool
