// Set reconciliation (Eppstein et al., SIGCOMM 2011): two hosts hold
// nearly identical key sets and want to learn the difference while
// exchanging only O(difference) bytes. Each host summarizes its set in an
// IBLT sized for the expected difference, one table is subtracted from
// the other, and peeling the difference table yields exactly the
// symmetric difference — with the paper's parallel recovery finishing in
// O(log log d) rounds.
package main

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/rng"
)

func main() {
	const shared = 1_000_000 // keys on both hosts
	const diffA, diffB = 450, 550
	const tableCells = 4096 // sized for ~1000 differences: load ~0.24

	gen := rng.New(7)
	newKey := func() uint64 {
		for {
			if k := gen.Uint64(); k != 0 {
				return k
			}
		}
	}

	common := make([]uint64, shared)
	for i := range common {
		common[i] = newKey()
	}
	onlyA := make([]uint64, diffA)
	for i := range onlyA {
		onlyA[i] = newKey()
	}
	onlyB := make([]uint64, diffB)
	for i := range onlyB {
		onlyB[i] = newKey()
	}

	setA := append(append([]uint64(nil), common...), onlyA...)
	setB := append(append([]uint64(nil), common...), onlyB...)
	fmt.Printf("host A: %d keys, host B: %d keys, true difference: %d\n",
		len(setA), len(setB), diffA+diffB)

	// Path 1 — the full two-message protocol: strata estimators size the
	// difference, then a difference-sized IBLT is exchanged and decoded.
	// Neither side needs to know the difference size in advance.
	gotA, gotB, wire, err := repro.ReconcileSets(setA, setB, 2024, 1.5)
	if err != nil {
		fmt.Println("protocol failed:", err)
		return
	}
	fmt.Printf("protocol: recovered %d A-only / %d B-only keys over %d KiB on the wire (full set: %.1f MiB)\n",
		len(gotA), len(gotB), wire/1024, float64(len(setA))*8/(1<<20))
	if len(gotA) != diffA || len(gotB) != diffB {
		fmt.Println("RECONCILIATION FAILED (protocol)")
		return
	}

	// Path 2 — pre-sized tables with the parallel subround recovery, for
	// when the difference bound is known: B subtracts A's summary and
	// peels it across all cores.
	rt := repro.DefaultRuntime()
	hostA := repro.NewIBLT(tableCells, 4, 99)
	hostA.InsertAllWithPool(setA, rt.Pool())
	hostB := repro.NewIBLT(tableCells, 4, 99)
	hostB.InsertAllWithPool(setB, rt.Pool())
	hostB.Subtract(hostA)
	res, err := rt.Decode(context.Background(), hostB)
	if err != nil {
		fmt.Println("decode failed:", err)
		return
	}
	fmt.Printf("pre-sized table: complete=%v in %d rounds (%d subrounds), %d cells x 24 B = %d KiB\n",
		res.Complete, res.Rounds, res.Subrounds, hostA.Cells(), hostA.Cells()*24/1024)
	if !res.Complete || len(res.Added) != diffB || len(res.Removed) != diffA {
		fmt.Println("RECONCILIATION FAILED (pre-sized)")
		return
	}
	fmt.Println("reconciliation OK: symmetric difference recovered exactly, both paths")
}
