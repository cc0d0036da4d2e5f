package core

import (
	"fmt"
	"testing"

	"repro/internal/parallel"
)

// TestConcurrentPeelsSharedPool is the multi-tenant peeling contract: N
// concurrent jobs run full peels (ParallelCtx on both scan policies, plus
// SubtablesCtx) on ONE shared pool, and every job must produce exactly the
// single-tenant result for its graph — same rounds, same survivor
// history, same core. Under -race this validates that the per-run round
// buffers (per-worker shards indexed by pool worker IDs) stay private to
// each run even though concurrent runs all observe the full ID range.
func TestConcurrentPeelsSharedPool(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()

	const jobs = 6
	type want struct {
		parF, parS, sub *Result
	}
	ugraphs := make([]*want, jobs)
	for j := 0; j < jobs; j++ {
		g := uniformGraph(12000+500*j, 8400+350*j, 4, uint64(40+j))
		pg := partitionedGraph(8000+400*j, 5600+280*j, 4, uint64(60+j))
		ugraphs[j] = &want{
			parF: runParallel(g, 2, Options{Scan: Frontier}),
			parS: runParallel(g, 2, Options{Scan: FullScan}),
			sub:  runSubtables(pg, 2, Options{}),
		}
	}

	group := pool.NewGroup(0)
	for j := 0; j < jobs; j++ {
		group.Go(func(p *parallel.Pool) error {
			g := uniformGraph(12000+500*j, 8400+350*j, 4, uint64(40+j))
			pg := partitionedGraph(8000+400*j, 5600+280*j, 4, uint64(60+j))
			opts := Options{Pool: p}
			checks := []struct {
				name string
				got  *Result
				want *Result
			}{
				{"Parallel/Frontier", runParallel(g, 2, Options{Scan: Frontier, Pool: p}), ugraphs[j].parF},
				{"Parallel/FullScan", runParallel(g, 2, Options{Scan: FullScan, Pool: p}), ugraphs[j].parS},
				{"Subtables", runSubtables(pg, 2, opts), ugraphs[j].sub},
			}
			for _, c := range checks {
				if c.got.Rounds != c.want.Rounds || c.got.Subrounds != c.want.Subrounds {
					return fmt.Errorf("job %d %s: rounds/subrounds (%d,%d) != (%d,%d)",
						j, c.name, c.got.Rounds, c.got.Subrounds, c.want.Rounds, c.want.Subrounds)
				}
				if c.got.CoreVertices != c.want.CoreVertices || c.got.CoreEdges != c.want.CoreEdges {
					return fmt.Errorf("job %d %s: core (%d,%d) != (%d,%d)",
						j, c.name, c.got.CoreVertices, c.got.CoreEdges, c.want.CoreVertices, c.want.CoreEdges)
				}
				if len(c.got.SurvivorHistory) != len(c.want.SurvivorHistory) {
					return fmt.Errorf("job %d %s: history length %d != %d",
						j, c.name, len(c.got.SurvivorHistory), len(c.want.SurvivorHistory))
				}
				for i := range c.got.SurvivorHistory {
					if c.got.SurvivorHistory[i] != c.want.SurvivorHistory[i] {
						return fmt.Errorf("job %d %s: survivors[%d] %d != %d",
							j, c.name, i, c.got.SurvivorHistory[i], c.want.SurvivorHistory[i])
					}
				}
			}
			return nil
		})
	}
	if err := group.Wait(); err != nil {
		t.Fatal(err)
	}
}
