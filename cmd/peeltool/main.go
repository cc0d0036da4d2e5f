// Command peeltool generates, stores, loads, and peels hypergraphs in
// the repository's binary format — the glue for experimenting with
// external or hand-built instances — and builds/serves static-function
// images in the flat layout (see the build, dump, and query
// subcommands in static.go).
//
//	peeltool -gen -n 100000 -c 0.7 -r 4 -o graph.hgr   # generate & save
//	peeltool -i graph.hgr -k 2                          # load & peel
//	peeltool -gen -n 100000 -c 0.7 -r 4 -k 2            # generate & peel
//
//	peeltool build -kind map -n 1000000 -o table.sfn    # offline build
//	peeltool dump -i table.sfn                          # image geometry
//	peeltool query -i table.sfn -key 42 -mmap           # zero-copy serve
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/layout"
	"repro/internal/parallel"
	"repro/internal/rng"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "build":
			runBuild(os.Args[2:])
			return
		case "dump":
			runDump(os.Args[2:])
			return
		case "query":
			runQuery(os.Args[2:])
			return
		}
	}

	gen := flag.Bool("gen", false, "generate a random hypergraph")
	n := flag.Int("n", 100000, "vertices (generation)")
	c := flag.Float64("c", 0.7, "edge density (generation)")
	r := flag.Int("r", 4, "edge arity (generation)")
	part := flag.Bool("partitioned", false, "generate the partitioned (subtable) model")
	seed := flag.Uint64("seed", 2014, "generation seed")
	in := flag.String("i", "", "input hypergraph file")
	out := flag.String("o", "", "output hypergraph file (with -gen)")
	k := flag.Int("k", 2, "core parameter for peeling")
	subtables := flag.Bool("subtables", false, "peel with subrounds (needs a partitioned graph)")
	depths := flag.Bool("depths", false, "also print the peel-depth histogram")
	flag.Parse()

	var g *hypergraph.Hypergraph
	switch {
	case *gen:
		m := int(*c * float64(*n))
		if *part {
			nn := *n - *n%*r
			g = hypergraph.Partitioned(nn, m, *r, rng.New(*seed), parallel.Default())
		} else {
			g = hypergraph.Uniform(*n, m, *r, rng.New(*seed), parallel.Default())
		}
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		g, err = hypergraph.ReadFrom(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "need -gen or -i; see -help")
		os.Exit(2)
	}

	fmt.Printf("hypergraph: n=%d m=%d r=%d density=%.4f partitioned=%v\n",
		g.N, g.M, g.R, g.EdgeDensity(), g.SubtableSize != 0)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if _, err := g.WriteTo(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *k > 0 {
		// Without a deadline the peelers cannot fail.
		var res *core.Result
		if *subtables {
			res, _ = core.SubtablesCtx(context.Background(), g, *k, core.Options{})
			fmt.Printf("subtable peel: %d rounds (%d subrounds)\n", res.Rounds, res.Subrounds)
		} else {
			res, _ = core.ParallelCtx(context.Background(), g, *k, core.Options{})
			fmt.Printf("parallel peel: %d rounds\n", res.Rounds)
		}
		fmt.Printf("%d-core: %d vertices, %d edges (empty=%v)\n",
			*k, res.CoreVertices, res.CoreEdges, res.Empty())
		if *depths {
			d := core.Depths(g, *k)
			hist := map[int32]int{}
			for _, dv := range d {
				hist[dv]++
			}
			fmt.Println("depth histogram (round removed -> vertices; -1 = core):")
			for round := int32(-1); ; round++ {
				if cnt, ok := hist[round]; ok {
					fmt.Printf("  %3d: %d\n", round, cnt)
				}
				if int(round) > res.Rounds {
					break
				}
			}
		}
	}
}

// Exit codes: 1 generic failure, 2 usage, 3 image rejected by
// validation (bad magic/version/bounds/alignment or checksum mismatch —
// a corrupt, truncated, or torn file). The distinct code lets scripts
// and orchestrators tell "this image is damaged, rebuild or refetch it"
// from transient operational errors.
const exitBadImage = 3

func fatal(err error) {
	if errors.Is(err, layout.ErrBadImage) || errors.Is(err, layout.ErrUnaligned) {
		fmt.Fprintf(os.Stderr, "peeltool: image rejected: %v\n", err)
		fmt.Fprintln(os.Stderr, "peeltool: the file is corrupt, truncated, or torn; rebuild or refetch it")
		os.Exit(exitBadImage)
	}
	fmt.Fprintln(os.Stderr, "peeltool:", err)
	os.Exit(1)
}
