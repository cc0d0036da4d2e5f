package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/iblt"
	"repro/internal/parallel"
	"repro/internal/recurrence"
	"repro/internal/server"
	"repro/internal/server/client"
)

// Reconcile workload sizes: each side holds the shared keys plus its
// own 1%, reconciled with headroom 1.5.
const (
	sharedKeys = 1 << 16
	uniqueKeys = sharedKeys / 100
	headroom   = 1.5
	maxReseeds = 3
)

// reconcile runs one reconciliation as a client of the protocol does: a
// FAILED reply, a difference table still undecodable after the server's
// headroom retries, is issued again under a fresh seed, at most
// maxReseeds times. The server's retries keep the table's hash seed, so
// a stopping set (keys sharing all their cells, about 4 requests in
// 10^4 here) survives every one of them; a new seed escapes it. The
// reply's Attempts counts the server's attempts across every issue (a
// FAILED reply carries no metadata, so its policy's whole ladder is
// counted; its wire bytes are not), and reseeds counts the extra issues.
func reconcile(ctx context.Context, c *client.Client, in reconcileInput) (r *server.ReconcileResult, reseeds int, err error) {
	seed := in.seed
	for ; ; reseeds++ {
		r, err = c.Reconcile(ctx, in.local, in.remote, seed, headroom)
		var se *server.Error
		if err == nil {
			r.Attempts += reseeds * (defaultPolicy.ReconcileRetries + 1)
			return r, reseeds, nil
		}
		if reseeds == maxReseeds || !errors.As(err, &se) || se.Code != server.CodeFailed {
			return nil, reseeds, err
		}
		seed = mix(seed + 1)
	}
}

// reconcileInput is one request's generated sets and expected answer.
type reconcileInput struct {
	local, remote       []uint64
	onlyLocal, onlyRemt []uint64 // sorted
	seed                uint64
}

func runReconcile(cfg config) (*result, error) {
	res := newResult()
	base := mix(cfg.seed ^ 0x5ec0c11e)
	per := sharedKeys + 2*uniqueKeys
	inputFor := func(i int) reconcileInput {
		shared := keyRange(base, i*per, i*per+sharedKeys)
		ol := keyRange(base, i*per+sharedKeys, i*per+sharedKeys+uniqueKeys)
		or := keyRange(base, i*per+sharedKeys+uniqueKeys, (i+1)*per)
		in := reconcileInput{
			local:  append(slices.Clone(shared), ol...),
			remote: append(shared, or...),
			seed:   mix(cfg.seed<<20 + uint64(i)),
		}
		slices.Sort(ol)
		slices.Sort(or)
		in.onlyLocal, in.onlyRemt = ol, or
		return in
	}
	check := func(in reconcileInput, onlyLocal, onlyRemote []uint64) error {
		if !slices.Equal(onlyLocal, in.onlyLocal) || !slices.Equal(onlyRemote, in.onlyRemt) {
			return fmt.Errorf("difference sides %d/%d keys, want %d/%d (or contents differ)",
				len(onlyLocal), len(onlyRemote), len(in.onlyLocal), len(in.onlyRemt))
		}
		return nil
	}
	res.params["shared_keys"] = sharedKeys
	res.params["unique_keys_per_side"] = uniqueKeys
	res.params["headroom"] = headroom
	res.params["callers"] = 2

	next := 0
	s, err := setupServer(res, 2, func(s *served) error {
		ctx, cancel := callCtx()
		defer cancel()
		in := inputFor(next)
		next++
		r, _, err := reconcile(ctx, s.clients[0], in)
		if err != nil {
			return err
		}
		return check(in, r.OnlyLocal, r.OnlyRemote)
	})
	if err != nil {
		return nil, err
	}

	var rec recorder
	var mu sync.Mutex
	var bits, attempts []float64
	var reseeds int
	phase := func(seconds float64, tr *tracer) loopStats {
		offset := next
		l := closedLoop(2, seconds, func(c, j int) (time.Duration, outcome) {
			i := offset + j
			in := inputFor(i)
			ctx, cancel := callCtx()
			defer cancel()
			id := tr.newID()
			t0 := time.Now()
			r, n, err := reconcile(ctx, s.clients[c], in)
			t1 := time.Now()
			tr.record(id, 0, uint64(i+1), "client.Reconcile", t0, t1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: reconcile request %d: %v\n", i, err)
				return t1.Sub(t0), callFailed
			}
			if err := check(in, r.OnlyLocal, r.OnlyRemote); err != nil {
				res.mismatch("reconcile request %d: %v", i, err)
				return t1.Sub(t0), callWrong
			}
			mu.Lock()
			bits = append(bits, float64(r.WireBytes)*8/float64(2*uniqueKeys))
			attempts = append(attempts, float64(r.Attempts))
			reseeds += n
			mu.Unlock()
			if tr != nil && r.Attempts == 1 {
				// Replays run the protocol once, as a first attempt does.
				rec.add(sampled{i: i, span: id, seed: in.seed})
			}
			return t1.Sub(t0), callOK
		})
		next += l.attempted
		return l
	}

	untraced, tr := measureLoop(cfg, res, s.srv.Runtime(), s, phase)
	res.values["space_bits_per_item"] = mean(bits)
	if cfg.trace {
		res.values["runtime.reconcile_attempts"] = mean(attempts)
		res.values["client.reconcile_reseeds"] = float64(reseeds)
	}
	invariantMetrics(res, s.drain(res))
	if err := checkSamples(len(untraced.lat), cfg); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := replayReconcile(res, tr, rec.s, inputFor); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// replayReconcile replays recorded reconcile requests through the iblt
// layer's public calls on private pools: the whole protocol, the strata
// estimate alone, and the difference-table decode alone.
func replayReconcile(res *result, tr *tracer, samples []sampled, inputFor func(int) reconcileInput) error {
	ctx := context.Background()
	var subrounds, models, ratios, cellsPer []float64
	for _, w := range replayWorkers {
		pool := parallel.NewPool(w)
		sfx := fmt.Sprintf(".w%d", w)
		for _, s := range samples {
			in := inputFor(s.i)
			req := uint64(s.i + 1)
			diff := len(in.onlyLocal) + len(in.onlyRemt)

			if err := tr.run(s.span, req, "iblt.reconcile"+sfx, func() error {
				ol, or, _, err := iblt.ReconcileCtx(ctx, in.local, in.remote, in.seed, headroom, pool)
				if err == nil && (!slices.Equal(ol, in.onlyLocal) || !slices.Equal(or, in.onlyRemt)) {
					res.mismatch("reconcile request %d: in-process reconcile at %d workers is wrong", s.i, w)
				}
				return err
			}); err != nil {
				return err
			}
			if w == 2 {
				// The server's handler: the policy's retry loop around the
				// same protocol, on the server's pool size.
				if err := tr.run(s.span, req, "runtime.reconcile", func() error {
					_, _, _, err := defaultPolicy.Reconcile(ctx, in.local, in.remote, in.seed, headroom, pool)
					return err
				}); err != nil {
					return err
				}
			}

			var est int
			tr.run(s.span, req, "iblt.strata"+sfx, func() error {
				le, re := iblt.NewStrataEstimator(in.seed), iblt.NewStrataEstimator(in.seed)
				le.InsertAllWithPool(in.local, pool)
				re.InsertAllWithPool(in.remote, pool)
				le.Subtract(re)
				est = max(le.Estimate(), 1)
				return nil
			})

			// A difference table sized as the protocol sizes it:
			// headroom × estimate × 1.3 cells, at least 48.
			cells := max(int(headroom*float64(est)*1.3), 48)
			lt, rt := iblt.New(cells, 3, in.seed), iblt.New(cells, 3, in.seed)
			lt.InsertAllWithPool(in.local, pool)
			rt.InsertAllWithPool(in.remote, pool)
			var dec *iblt.ParallelResult
			if err := tr.run(s.span, req, "iblt.decode"+sfx, func() error {
				lt.Subtract(rt)
				var err error
				dec, err = lt.DecodeParallelFrontierCtx(ctx, pool)
				return err
			}); err != nil {
				return err
			}
			// The table's hash seed is the replay's own, so it may fail to
			// decode where the protocol's did not; only a complete decode
			// must recover the difference.
			if got := len(dec.Added) + len(dec.Removed); dec.Complete && got != diff {
				res.mismatch("reconcile request %d: difference table decoded %d keys, want %d", s.i, got, diff)
			}
			if w == 2 {
				n := float64(lt.Cells())
				p := recurrence.Params{K: 2, R: 3, C: float64(diff) / n}
				m, _, err := p.PredictSubrounds(n, 1000)
				if err != nil {
					return err
				}
				subrounds = append(subrounds, float64(dec.Subrounds))
				models = append(models, float64(m))
				ratios = append(ratios, float64(est)/float64(diff))
				cellsPer = append(cellsPer, n/float64(diff))
			}
		}
		pool.Close()
	}
	res.spans = tr.finish()
	for _, w := range replayWorkers {
		sfx := fmt.Sprintf(".w%d", w)
		total, strata, decode := stageMs(res, "iblt.reconcile", sfx), stageMs(res, "iblt.strata", sfx), stageMs(res, "iblt.decode", sfx)
		res.values["iblt.insert_ms"+sfx] = total - strata - decode
	}
	res.values["iblt.decode_subrounds"] = median(subrounds)
	res.values["iblt.decode_subrounds_model"] = median(models)
	res.values["iblt.estimate_ratio"] = median(ratios)
	res.values["iblt.cells_per_diff"] = median(cellsPer)
	res.values["server.wire_ms"] = median(byName(res.spans, "client.Reconcile")) - median(byName(res.spans, "runtime.reconcile"))
	return nil
}
