// Command peelload drives many concurrent peeling jobs against the
// Runtime serving API — the multi-tenant scenario the ROADMAP's "heavy
// traffic from millions of users" north star implies. It runs J
// identical jobs (IBLT decodes by default; MPHF builds, set
// reconciliations, and erasure decodes via -op) under two topologies at
// fixed total cores:
//
//   - shared:   one repro.Runtime of -workers workers, tenants admitted
//     through Runtime.Go (concurrent For batches spread across helpers
//     via the rotating dispatch offset);
//   - isolated: J private Runtimes of max(1, workers/J) workers each,
//     the pool-per-tenant layout a server would otherwise be forced
//     into.
//
// It reports wall time, aggregate throughput, and the Runtime's
// backpressure stats for each topology. With -cancel-after the shared
// run's context is canceled mid-load, demonstrating (and asserting)
// prompt cooperative cancellation: the run fails unless at least one
// job was aborted with the context error and the runtime counted it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/erasure"
	"repro/internal/iblt"
	"repro/internal/mphf"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/server/client"
)

func randomKeys(n int, seed uint64) []uint64 {
	gen := rng.New(seed)
	keys := make([]uint64, n)
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = gen.Uint64()
		}
	}
	return keys
}

// job is one tenant's workload: run runs one repetition on the given
// pool, honoring ctx; units is the number of "items" (keys/symbols) a
// repetition processes, for throughput reporting.
type job struct {
	run   func(ctx context.Context, p *repro.WorkerPool) error
	units int
}

func makeJob(op string, nkeys, r int, load float64, seed uint64) job {
	switch op {
	case "decode":
		cells := int(float64(nkeys) / load)
		keys := randomKeys(nkeys, seed)
		master := iblt.New(cells, r, seed^0xdec0de)
		master.InsertAllWithPool(keys, parallel.Default())
		return job{units: nkeys, run: func(ctx context.Context, p *repro.WorkerPool) error {
			res, err := master.Clone().DecodeParallelFrontierCtx(ctx, p)
			if err != nil {
				return err
			}
			if !res.Complete {
				return fmt.Errorf("decode incomplete at load %.2f", load)
			}
			return nil
		}}
	case "build":
		keys := randomKeys(nkeys, seed)
		return job{units: nkeys, run: func(ctx context.Context, p *repro.WorkerPool) error {
			_, err := mphf.BuildCtx(ctx, keys, mphf.DefaultGamma, seed, 10, p)
			return err
		}}
	case "reconcile":
		diff := nkeys/100 + 8
		common := randomKeys(nkeys, seed)
		local := append(append([]uint64(nil), common...), randomKeys(diff, seed^1)...)
		remote := append(append([]uint64(nil), common...), randomKeys(diff, seed^2)...)
		return job{units: nkeys, run: func(ctx context.Context, p *repro.WorkerPool) error {
			_, _, _, err := iblt.ReconcileCtx(ctx, local, remote, seed, 1.5, p)
			return err
		}}
	case "erasure":
		cells := int(float64(nkeys)/load/4) + 64
		code := erasure.NewCode(cells, max(3, r), seed)
		data := randomKeys(nkeys, seed)
		checks := code.Encode(data)
		losses := cells / 2
		return job{units: nkeys, run: func(ctx context.Context, p *repro.WorkerPool) error {
			got := append([]uint64(nil), data...)
			present := make([]bool, len(data))
			gen := rng.New(seed ^ 3)
			for i := range present {
				present[i] = true
			}
			for _, i := range gen.Perm(len(data))[:losses] {
				got[i], present[i] = 0, false
			}
			return code.DecodeCtx(ctx, got, present, checks, p)
		}}
	default:
		fmt.Fprintf(os.Stderr, "peelload: unknown -op %q (decode|build|reconcile|erasure)\n", op)
		os.Exit(2)
		return job{}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// makeNetJob is makeJob with the work shipped to a peelserved instance
// instead of the in-process pool: the tenant goroutines still run
// through the local Runtime (admission, stats, cancellation), but each
// repetition is a client round-trip, so the load lands on the server's
// shedding and deadline machinery. The client retries OVERLOADED
// replies with the server's hint, so a saturated server degrades to
// latency, not failures.
func makeNetJob(cl *client.Client, op string, nkeys, r int, load float64, seed uint64) job {
	switch op {
	case "decode":
		cells := int(float64(nkeys) / load)
		keys := randomKeys(nkeys, seed)
		master := iblt.New(cells, r, seed^0xdec0de)
		master.InsertAllWithPool(keys, parallel.Default())
		wire, err := master.MarshalBinary()
		if err != nil {
			fmt.Fprintf(os.Stderr, "peelload: marshal sketch: %v\n", err)
			os.Exit(1)
		}
		return job{units: nkeys, run: func(ctx context.Context, _ *repro.WorkerPool) error {
			res, err := cl.Decode(ctx, wire)
			if err != nil {
				return err
			}
			if !res.Complete || len(res.Added) != nkeys {
				return fmt.Errorf("remote decode recovered %d/%d keys (complete=%v)", len(res.Added), nkeys, res.Complete)
			}
			return nil
		}}
	case "build":
		keys := randomKeys(nkeys, seed)
		return job{units: nkeys, run: func(ctx context.Context, _ *repro.WorkerPool) error {
			img, err := cl.BuildMPHF(ctx, keys, seed)
			if err != nil {
				return err
			}
			if _, err := repro.OpenMPHF(img); err != nil {
				return fmt.Errorf("remote build returned bad image: %w", err)
			}
			return nil
		}}
	case "reconcile":
		diff := nkeys/100 + 8
		common := randomKeys(nkeys, seed)
		local := append(append([]uint64(nil), common...), randomKeys(diff, seed^1)...)
		remote := append(append([]uint64(nil), common...), randomKeys(diff, seed^2)...)
		return job{units: nkeys, run: func(ctx context.Context, _ *repro.WorkerPool) error {
			res, err := cl.Reconcile(ctx, local, remote, seed, 1.5)
			if err != nil {
				return err
			}
			if len(res.OnlyLocal) != diff || len(res.OnlyRemote) != diff {
				return fmt.Errorf("remote reconcile found %d/%d differences, want %d/%d",
					len(res.OnlyLocal), len(res.OnlyRemote), diff, diff)
			}
			return nil
		}}
	default:
		fmt.Fprintf(os.Stderr, "peelload: -op %q not supported with -addr (decode|build|reconcile)\n", op)
		os.Exit(2)
		return job{}
	}
}

// runTenants admits every tenant to rt via Runtime.Go under ctx and
// waits; it returns the elapsed time, how many jobs were canceled by
// ctx, and the first non-context error.
func runTenants(ctx context.Context, rt *repro.Runtime, tenants []job, reps int) (time.Duration, int, error) {
	start := time.Now()
	waits := make([]func() error, 0, len(tenants))
	var admissionErr error
	for j := range tenants {
		t := tenants[j]
		wait, err := rt.Go(ctx, func(ctx context.Context, p *repro.WorkerPool) error {
			for i := 0; i < reps; i++ {
				if err := t.run(ctx, p); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			admissionErr = err
			break
		}
		waits = append(waits, wait)
	}
	canceled := 0
	var firstErr error
	for _, wait := range waits {
		err := wait()
		switch {
		case err == nil:
		case parallel.IsCancellation(err):
			canceled++
		case firstErr == nil:
			firstErr = err
		}
	}
	if firstErr == nil && admissionErr != nil && !parallel.IsCancellation(admissionErr) {
		firstErr = admissionErr
	}
	return time.Since(start), canceled, firstErr
}

func main() {
	jobs := flag.Int("jobs", 4, "number of concurrent jobs (tenants)")
	mode := flag.String("mode", "both", "shared | isolated | both")
	op := flag.String("op", "decode", "workload per job: decode | build | reconcile | erasure")
	nkeys := flag.Int("keys", 20000, "keys (or symbols) per job")
	r := flag.Int("r", 3, "subtables / hashes per key")
	load := flag.Float64("load", 0.75, "IBLT / erasure load factor")
	reps := flag.Int("reps", 4, "repetitions per job")
	workers := flag.Int("workers", 0, "total worker budget (0 = GOMAXPROCS)")
	maxJobs := flag.Int("maxjobs", 0, "Runtime admission bound (0 = unbounded)")
	seed := flag.Uint64("seed", 2014, "base RNG seed")
	cancelAfter := flag.Duration("cancel-after", 0, "cancel the shared run's context after this delay and require ≥1 job canceled (0 = off)")
	addr := flag.String("addr", "", "drive the workload against a peelserved instance at this address instead of in-process (forces -mode=shared; ops: decode|build|reconcile)")
	flag.Parse()

	w := *workers
	if w <= 0 {
		w = parallel.Workers()
	}
	var cl *client.Client
	if *addr != "" {
		cl = client.Dial(*addr, client.Options{})
		defer cl.Close()
		*mode = "shared" // the isolated topology is meaningless against one remote server
	}
	tenants := make([]job, *jobs)
	for j := range tenants {
		tseed := *seed + uint64(j)*0x9e3779b97f4a7c15
		if cl != nil {
			tenants[j] = makeNetJob(cl, *op, *nkeys, *r, *load, tseed)
		} else {
			tenants[j] = makeJob(*op, *nkeys, *r, *load, tseed)
		}
	}
	totalUnits := 0
	for _, t := range tenants {
		totalUnits += t.units * *reps
	}
	if *addr != "" {
		fmt.Printf("peelload: op=%s jobs=%d keys/job=%d reps=%d addr=%s\n",
			*op, *jobs, *nkeys, *reps, *addr)
	} else {
		fmt.Printf("peelload: op=%s jobs=%d keys/job=%d reps=%d workers=%d\n",
			*op, *jobs, *nkeys, *reps, w)
	}

	report := func(name string, d time.Duration, st repro.RuntimeStats, err error) float64 {
		if err != nil {
			fmt.Fprintf(os.Stderr, "peelload: %s: %v\n", name, err)
			os.Exit(1)
		}
		rate := float64(totalUnits) / d.Seconds()
		fmt.Printf("  %-9s %10v  %12.0f keys/s aggregate\n", name, d.Round(time.Microsecond), rate)
		fmt.Printf("            stats: admitted=%d rejected=%d canceled=%d queue=%d busy=%d\n",
			st.JobsAdmitted, st.JobsRejected, st.JobsCanceled, st.QueueDepth, st.BusyHelpers)
		if st.JobsAdmitted == 0 {
			fmt.Fprintf(os.Stderr, "peelload: %s: JobsAdmitted stayed zero\n", name)
			os.Exit(1)
		}
		return rate
	}

	// Cancellation demonstration: cancel the shared run mid-load and
	// require the runtime to have aborted and counted jobs.
	if *cancelAfter > 0 {
		rt := repro.NewRuntime(repro.RuntimeOptions{Workers: w, MaxJobs: *maxJobs})
		ctx, cancel := context.WithTimeout(context.Background(), *cancelAfter)
		d, canceled, err := runTenants(ctx, rt, tenants, *reps)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "peelload: cancel run: %v\n", err)
			os.Exit(1)
		}
		st := rt.Stats()
		if err := rt.Shutdown(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "peelload: shutdown after cancel run: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  cancel    %10v  %d of %d jobs canceled (runtime counted %d)\n",
			d.Round(time.Microsecond), canceled, *jobs, st.JobsCanceled)
		if canceled == 0 || st.JobsCanceled == 0 {
			fmt.Fprintf(os.Stderr, "peelload: -cancel-after=%v expired but no job was canceled (work too small?)\n", *cancelAfter)
			os.Exit(1)
		}
		return
	}

	var sharedRate, isolatedRate float64
	if *mode == "shared" || *mode == "both" {
		rt := repro.NewRuntime(repro.RuntimeOptions{Workers: w, MaxJobs: *maxJobs})
		d, _, err := runTenants(context.Background(), rt, tenants, *reps)
		st := rt.Stats()
		if serr := rt.Shutdown(context.Background()); serr != nil && err == nil {
			err = serr
		}
		sharedRate = report("shared", d, st, err)
	}
	if *mode == "isolated" || *mode == "both" {
		per := w / *jobs
		if per < 1 {
			per = 1
		}
		rts := make([]*repro.Runtime, *jobs)
		for j := range rts {
			rts[j] = repro.NewRuntime(repro.RuntimeOptions{Workers: per})
		}
		start := time.Now()
		waits := make([]func() error, *jobs)
		for j := range tenants {
			t := tenants[j]
			wait, err := rts[j].Go(context.Background(), func(ctx context.Context, p *repro.WorkerPool) error {
				for i := 0; i < *reps; i++ {
					if err := t.run(ctx, p); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "peelload: isolated admission: %v\n", err)
				os.Exit(1)
			}
			waits[j] = wait
		}
		var firstErr error
		admitted := int64(0)
		for j, wait := range waits {
			if err := wait(); err != nil && firstErr == nil {
				firstErr = err
			}
			admitted += rts[j].Stats().JobsAdmitted
			if err := rts[j].Shutdown(context.Background()); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		d := time.Since(start)
		var agg repro.RuntimeStats
		agg.JobsAdmitted = admitted
		isolatedRate = report("isolated", d, agg, firstErr)
	}
	if *mode == "both" && isolatedRate > 0 {
		fmt.Printf("  shared/isolated throughput ratio: %.2f\n", sharedRate/isolatedRate)
	}
}
