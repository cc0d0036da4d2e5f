// Random XORSAT across its three regimes: below the peeling threshold
// c*(2,3) ≈ 0.818 the whole system solves by peeling alone (the "pure
// literal rule"); between 0.818 and the satisfiability threshold ≈ 0.917
// a non-empty 2-core needs Gaussian elimination but the system is still
// almost surely consistent; past 0.917 a random right-hand side is
// almost surely contradictory.
package main

import (
	"fmt"

	"repro"
	"repro/internal/rng"
	"repro/internal/xorsat"
)

func main() {
	// Sized so the dense GF(2) elimination on the ~n/2-equation core in
	// the middle regime stays in seconds; peeling itself scales far
	// beyond this (see cmd/experiments table1), but the Gauss stage is cubic.
	const n = 20_000
	cstar, _ := repro.Threshold(2, 3)
	fmt.Printf("random 3-XORSAT over %d variables (peel threshold %.4f, SAT threshold ~0.917)\n\n", n, cstar)

	for _, c := range []float64{0.70, 0.86, 0.95} {
		in := repro.NewRandomXORSAT(n, int(c*float64(n)), 3, 2014)
		assign, stats, err := in.Solve()
		switch {
		case err != nil:
			fmt.Printf("c=%.2f: UNSATISFIABLE (peeled %d, core %d eqs, rank %d)\n",
				c, stats.PeeledEquations, stats.CoreEquations, stats.GaussRank)
		case !in.Check(assign):
			fmt.Printf("c=%.2f: INTERNAL ERROR — solution fails check\n", c)
		case stats.CoreEquations == 0:
			fmt.Printf("c=%.2f: solved by peeling alone (%d equations back-substituted)\n",
				c, stats.PeeledEquations)
		default:
			fmt.Printf("c=%.2f: solved — peeled %d eqs, Gauss on a %d-eq / %d-var core (rank %d)\n",
				c, stats.PeeledEquations, stats.CoreEquations, stats.CoreVariables, stats.GaussRank)
		}
	}

	fmt.Println("\nplanted instance above the SAT threshold (always consistent):")
	planted, _ := xorsat.RandomSatisfiable(n/2, int(1.05*float64(n/2)), 3, rng.New(7))
	assign, stats, err := planted.Solve()
	if err != nil || !planted.Check(assign) {
		fmt.Println("  FAILED:", err)
		return
	}
	fmt.Printf("  solved %d-var instance at c=1.05 with a %d-eq core (rank %d)\n",
		n/2, stats.CoreEquations, stats.GaussRank)
}
