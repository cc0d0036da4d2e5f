// Package xorsat solves random r-XORSAT instances (systems of XOR
// equations, each over r distinct variables) with the peeling + Gaussian
// elimination pipeline that connects the paper's k-core analysis to the
// satisfiability literature it cites (Molloy's pure literal rule;
// Dietzfelbinger et al.'s XORSAT/cuckoo thresholds).
//
// Viewing variables as vertices and equations as edges gives a random
// r-uniform hypergraph. A variable of degree < 2 lets its equation be
// satisfied by local assignment, so the "pure literal" peeling is exactly
// 2-core peeling: equations outside the 2-core are solved by
// back-substitution in reverse peel order, and only the 2-core (empty
// w.h.p. below c*(2,r), e.g. 0.818n equations for r = 3) needs dense
// GF(2) elimination. Between c*(2,r) and the XORSAT satisfiability
// threshold (~0.917n for r = 3) the core is non-empty yet almost surely
// consistent — the regime where the Gauss stage earns its keep.
package xorsat

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Instance is a system of M equations over N boolean variables: equation
// e asserts XOR of Vars[e*R .. e*R+R-1] equals RHS[e].
type Instance struct {
	N   int
	R   int
	Var []uint32 // flattened, M*R entries
	RHS []uint8  // 0/1 per equation
}

// M returns the number of equations.
func (in *Instance) M() int { return len(in.RHS) }

// Random returns an instance with m equations over n variables, each over
// r distinct uniform variables with a uniform right-hand side.
func Random(n, m, r int, gen *rng.RNG) *Instance {
	g := hypergraph.Uniform(n, m, r, gen, parallel.Default())
	rhs := make([]uint8, m)
	for e := range rhs {
		rhs[e] = uint8(gen.Uint64() & 1)
	}
	return &Instance{N: n, R: r, Var: g.Edges, RHS: rhs}
}

// RandomSatisfiable returns an instance whose right-hand sides are
// consistent with a hidden uniform assignment, which it also returns.
// Useful for testing the solver above the satisfiability threshold.
func RandomSatisfiable(n, m, r int, gen *rng.RNG) (*Instance, []uint8) {
	g := hypergraph.Uniform(n, m, r, gen, parallel.Default())
	planted := make([]uint8, n)
	for v := range planted {
		planted[v] = uint8(gen.Uint64() & 1)
	}
	rhs := make([]uint8, m)
	for e := 0; e < m; e++ {
		var b uint8
		for _, v := range g.EdgeVertices(e) {
			b ^= planted[v]
		}
		rhs[e] = b
	}
	return &Instance{N: n, R: r, Var: g.Edges, RHS: rhs}, planted
}

// Check reports whether assign satisfies every equation.
func (in *Instance) Check(assign []uint8) bool {
	if len(assign) != in.N {
		return false
	}
	r := in.R
	for e := 0; e < in.M(); e++ {
		var b uint8
		for _, v := range in.Var[e*r : e*r+r] {
			b ^= assign[v] & 1
		}
		if b != in.RHS[e] {
			return false
		}
	}
	return true
}

// Stats describes how a Solve run decomposed the system.
type Stats struct {
	PeeledEquations int // equations solved by back-substitution
	CoreEquations   int // equations left in the 2-core
	CoreVariables   int // variables left in the 2-core
	GaussRank       int // rank of the core system
}

// ErrUnsatisfiable is returned when Gaussian elimination finds an
// inconsistent core row (0 = 1).
var ErrUnsatisfiable = errors.New("xorsat: system is unsatisfiable")

// Solve returns a satisfying assignment, or ErrUnsatisfiable. Free
// variables (never constrained) are set to 0. The pipeline is: peel to
// the 2-core, Gauss-solve the core, then back-substitute the peeled
// equations in reverse peel order.
func (in *Instance) Solve() ([]uint8, Stats, error) {
	g := hypergraph.FromEdges(in.N, in.R, in.Var, 0)
	peel := core.Sequential(g, 2)
	stats := Stats{
		PeeledEquations: len(peel.PeelOrder),
		CoreEquations:   peel.Result.CoreEdges,
		CoreVariables:   peel.Result.CoreVertices,
	}
	assign := make([]uint8, in.N)

	if peel.Result.CoreEdges > 0 {
		rank, err := in.solveCore(peel, assign)
		stats.GaussRank = rank
		if err != nil {
			return nil, stats, err
		}
	}

	// Back-substitution: reverse peel order guarantees every other
	// variable of the equation already has its final value.
	r := in.R
	for i := len(peel.PeelOrder) - 1; i >= 0; i-- {
		e := peel.PeelOrder[i]
		free := peel.FreeVertex[e]
		var b uint8
		for _, v := range in.Var[int(e)*r : int(e)*r+r] {
			if v != free {
				b ^= assign[v]
			}
		}
		assign[free] = b ^ in.RHS[e]
	}

	if !in.Check(assign) {
		// Cannot happen if the implementation is correct; guard anyway.
		return nil, stats, fmt.Errorf("xorsat: internal error: produced assignment fails check")
	}
	return assign, stats, nil
}

// solveCore runs dense GF(2) Gaussian elimination on the 2-core equations
// and writes the core variables' values into assign. Returns the rank.
func (in *Instance) solveCore(peel *core.SeqResult, assign []uint8) (int, error) {
	// Compact core variables to columns.
	col := make([]int32, in.N)
	for i := range col {
		col[i] = -1
	}
	nCore := 0
	for v := 0; v < in.N; v++ {
		if peel.Result.VertexAlive[v] != 0 {
			col[v] = int32(nCore)
			nCore++
		}
	}
	words := (nCore + 1 + 63) / 64 // +1 for the RHS bit
	rhsBit := nCore

	rows := make([][]uint64, 0, peel.Result.CoreEdges)
	r := in.R
	for e := 0; e < in.M(); e++ {
		if peel.Result.EdgeAlive[e] == 0 {
			continue
		}
		row := make([]uint64, words)
		for _, v := range in.Var[e*r : e*r+r] {
			c := col[v]
			row[c>>6] ^= 1 << (uint(c) & 63)
		}
		if in.RHS[e] != 0 {
			row[rhsBit>>6] ^= 1 << (uint(rhsBit) & 63)
		}
		rows = append(rows, row)
	}

	// Forward elimination with column pivoting.
	pivotOfCol := make([]int, nCore)
	for i := range pivotOfCol {
		pivotOfCol[i] = -1
	}
	rank := 0
	for c := 0; c < nCore && rank < len(rows); c++ {
		w, mask := c>>6, uint64(1)<<(uint(c)&63)
		pivot := -1
		for i := rank; i < len(rows); i++ {
			if rows[i][w]&mask != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		for i := 0; i < len(rows); i++ {
			if i != rank && rows[i][w]&mask != 0 {
				xorRow(rows[i], rows[rank])
			}
		}
		pivotOfCol[c] = rank
		rank++
	}

	// Inconsistency: a row with empty LHS but set RHS.
	for i := rank; i < len(rows); i++ {
		if rows[i][rhsBit>>6]&(1<<(uint(rhsBit)&63)) != 0 && rowLHSEmpty(rows[i], nCore) {
			return rank, ErrUnsatisfiable
		}
	}

	// Read the solution: pivot columns take their row's RHS bit; free
	// core columns stay 0 (already zero in assign).
	for v := 0; v < in.N; v++ {
		c := col[v]
		if c < 0 {
			continue
		}
		if p := pivotOfCol[c]; p >= 0 {
			if rows[p][rhsBit>>6]&(1<<(uint(rhsBit)&63)) != 0 {
				assign[v] = 1
			}
		}
	}
	return rank, nil
}

func xorRow(dst, src []uint64) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

func rowLHSEmpty(row []uint64, nCore int) bool {
	full := nCore >> 6
	for i := 0; i < full; i++ {
		if row[i] != 0 {
			return false
		}
	}
	if rem := uint(nCore) & 63; rem != 0 {
		if row[full]&((1<<rem)-1) != 0 {
			return false
		}
	}
	return true
}

// PeelOnlySolvable reports whether the instance can be solved by peeling
// alone (empty 2-core) — the fast path whose threshold c*(2,r) the paper
// analyzes. Used by the ablation comparing peel-only vs peel+Gauss
// success rates between c*(2,r) and the XORSAT threshold.
func (in *Instance) PeelOnlySolvable() bool {
	g := hypergraph.FromEdges(in.N, in.R, in.Var, 0)
	return core.Sequential(g, 2).Empty()
}

// DensityRegimeNote returns a human-readable description of where edge
// density c sits for arity r relative to the peeling threshold. Helper
// for the example programs' output.
func DensityRegimeNote(c, cstar float64) string {
	switch {
	case c < cstar:
		return fmt.Sprintf("below peeling threshold %.4f: peel-only suffices w.h.p.", cstar)
	default:
		return fmt.Sprintf("above peeling threshold %.4f: non-empty core expected, Gauss stage engaged", cstar)
	}
}
