// Sparse recovery — the Section 6 motivating workload for IBLTs: N items
// flow into a set and all but n of them are later deleted. The IBLT uses
// space proportional to the final n survivors (not the N insertions) and
// still returns the surviving set exactly, by peeling. Recovery succeeds
// while survivors/cells stays below c*(2,r).
package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/rng"
)

func main() {
	const totalInserted = 2_000_000
	const survivors = 100_000
	const cells = 1 << 18 // load = 0.38, comfortably below c*(2,4) = 0.772

	gen := rng.New(3)
	keys := make([]uint64, totalInserted)
	seen := make(map[uint64]bool, totalInserted)
	for i := range keys {
		for {
			k := gen.Uint64()
			if k != 0 && !seen[k] {
				seen[k] = true
				keys[i] = k
				break
			}
		}
	}

	rt := repro.DefaultRuntime()
	table := repro.NewIBLT(cells, 4, 2014)
	start := time.Now()
	table.InsertAllWithPool(keys, rt.Pool())             // N insertions
	table.DeleteAllWithPool(keys[survivors:], rt.Pool()) // N - n deletions
	fmt.Printf("streamed %d inserts + %d deletes through %d cells in %v\n",
		totalInserted, totalInserted-survivors, table.Cells(),
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("table load at recovery time: %.3f (threshold %.3f)\n",
		table.Load(survivors), 0.7723)

	start = time.Now()
	res, err := rt.Decode(context.Background(), table)
	if err != nil {
		fmt.Println("RECOVERY FAILED:", err)
		return
	}
	fmt.Printf("parallel recovery: complete=%v, %d keys in %d rounds, %v\n",
		res.Complete, len(res.Added), res.Rounds, time.Since(start).Round(time.Millisecond))

	// Verify the recovered set is exactly the surviving prefix.
	want := make(map[uint64]bool, survivors)
	for _, k := range keys[:survivors] {
		want[k] = true
	}
	if len(res.Added) != survivors {
		fmt.Println("RECOVERY FAILED: wrong count")
		return
	}
	for _, k := range res.Added {
		if !want[k] {
			fmt.Println("RECOVERY FAILED: bogus key")
			return
		}
	}
	fmt.Println("recovery OK: surviving set reproduced exactly")
}
