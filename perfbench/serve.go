package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/layout"
	"repro/internal/parallel"
)

// Serve workload: lookups of lookupBatch keys against a serveKeys-key
// static map on one connection, beside image swaps on a second. An
// untraced run drives the lookups in a closed loop; a traced run drives
// them open-loop through a ladder of arrival rates.
const (
	serveKeys   = 1 << 20
	lookupBatch = 256
	// serveCallers is 1: client and server share the process's two
	// cores, and with two callers the rate and p95 moved by a sixth
	// between identical runs.
	serveCallers = 1
	// swapPeriod spaces the swaps so that they occupy about a tenth of
	// wall time on a 2-core machine, where one takes ~25 ms.
	swapPeriod = 250 * time.Millisecond
	// sloLimitMs is the p95 latency limit behind slo_rps.
	sloLimitMs = 10.0
	// maxOutstanding bounds the lookups in flight; when it is reached
	// the generator waits, and the wait shows as lag.
	maxOutstanding = 512
)

// ladder is the fixed sequence of open-loop arrival rates, in requests
// per second, each held for an equal share of a traced run's request
// phase. nominalStep is the step whose achieved rate the tracing
// overhead is measured on.
var (
	ladder      = []float64{250, 500, 1000, 2000}
	nominalStep = 1
)

// lookupRec is one open-loop request as it happened, in offsets from
// the phase start.
type lookupRec struct {
	step                int
	due, released, done time.Duration
	outcome             outcome
}

// schedule draws the arrival times of steps at the given rates:
// rate·length arrivals placed uniformly at random within the step and
// sorted, which is a Poisson process conditioned on its count.
func schedule(gen *rng, rates []float64, stepLen time.Duration) []lookupRec {
	var out []lookupRec
	for k, rate := range rates {
		n := int(math.Round(rate * stepLen.Seconds()))
		start := time.Duration(k) * stepLen
		due := make([]time.Duration, n)
		for i := range due {
			due[i] = start + time.Duration(gen.float()*float64(stepLen))
		}
		slices.Sort(due)
		for _, d := range due {
			out = append(out, lookupRec{step: k, due: d})
		}
	}
	return out
}

// serveImages holds the two static-map images swapped in turn. The
// table's generation g serves images[(g-1)%2].
type serveImages struct {
	keys   []uint64
	values [2][]uint64
	images [2][]byte
}

// expected returns the value generation gen must give keys[i].
func (si *serveImages) expected(gen uint64, i int) uint64 { return si.values[(gen-1)%2][i] }

// checkLookup checks a lookup reply against the image its generation
// names.
func (si *serveImages) checkLookup(idx []int, gen uint64, values []uint64) error {
	if gen == 0 || len(values) != len(idx) {
		return fmt.Errorf("generation %d with %d values for %d keys", gen, len(values), len(idx))
	}
	for j, i := range idx {
		if values[j] != si.expected(gen, i) {
			return fmt.Errorf("key %#x: value %#x, generation %d holds %#x", si.keys[i], values[j], gen, si.expected(gen, i))
		}
	}
	return nil
}

func buildServeImages(seed uint64) (*serveImages, error) {
	si := &serveImages{keys: keyRange(mix(seed^0x5e1e), 0, serveKeys)}
	pool := parallel.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	for v := range si.values {
		si.values[v] = make([]uint64, serveKeys)
		for i, k := range si.keys {
			si.values[v][i] = mix(k ^ uint64(v+1)*0xa5a5a5a5)
		}
		m, err := defaultPolicy.BuildStaticMap(context.Background(), si.keys, si.values[v], mix(seed+uint64(v)), pool)
		if err != nil {
			return nil, fmt.Errorf("build image %d: %w", v, err)
		}
		si.images[v] = m.Bytes()
	}
	return si, nil
}

// batch returns the keys at the given indexes.
func (si *serveImages) batch(idx []int) []uint64 {
	keys := make([]uint64, len(idx))
	for j, k := range idx {
		keys[j] = si.keys[k]
	}
	return keys
}

// pickKeys draws request i's lookup batch as indexes into the key set.
func pickKeys(seed uint64, i int) []int {
	gen := &rng{s: mix(seed<<24 + uint64(i))}
	idx := make([]int, lookupBatch)
	for j := range idx {
		idx[j] = gen.intn(serveKeys)
	}
	return idx
}

// swapLoop swaps the two images in turn on the second connection every
// swapPeriod until stopped, checking that each swap installs the next
// generation.
type swapLoop struct {
	stop, done chan struct{}
	busy       time.Duration
	attempted  int
	failed     int
}

func startSwaps(s *served, si *serveImages, gen uint64, tr *tracer, res *result) *swapLoop {
	sw := &swapLoop{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sw.done)
		t := time.NewTicker(swapPeriod)
		defer t.Stop()
		for {
			select {
			case <-sw.stop:
				return
			case <-t.C:
			}
			want := gen + 1
			ctx, cancel := callCtx()
			id := tr.newID()
			t0 := time.Now()
			g, err := s.clients[1].SwapImage(ctx, si.images[(want-1)%2])
			t1 := time.Now()
			cancel()
			tr.record(id, 0, 0, "client.SwapImage", t0, t1)
			sw.busy += t1.Sub(t0)
			sw.attempted++
			switch {
			case err != nil:
				sw.failed++
				fmt.Fprintf(os.Stderr, "perfbench: swap to generation %d: %v\n", want, err)
			case g != want:
				res.mismatch("swap installed generation %d, want %d", g, want)
				return
			default:
				gen = g
			}
		}
	}()
	return sw
}

// finish stops the swaps and waits for the loop to end.
func (sw *swapLoop) finish() {
	close(sw.stop)
	<-sw.done
}

// serveOutcome is one open-loop phase as measured.
type serveOutcome struct {
	steps   []step
	lag     []float64 // release minus due, ms
	issued  int       // lookups and swaps sent
	samples []sampled // traced lookups kept for replay
	swaps   *swapLoop
	wall    time.Duration
}

// sleep blocks for d in the nanosleep system call. time.Sleep wakes on
// the runtime's millisecond timer tick, which would delay most releases
// by up to a millisecond; nanosleep overshoots by tens of microseconds.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// A signal, such as the runtime's preemption signal, ends the sleep
	// early with the remainder left in ts; sleep that too.
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// openLoop steps through the ladder, releasing every scheduled lookup
// at its due time beside the swap loop, and waits for all of them. The
// steps share the phase equally. It sleeps until the next due time and
// then releases every request that has come due, so a late wake-up
// delays requests but never drops them, and latency is timed from the
// due time.
func openLoop(s *served, si *serveImages, seed uint64, seconds float64, gen uint64, tr *tracer, res *result) serveOutcome {
	stepLen := time.Duration(seconds / float64(len(ladder)) * float64(time.Second))
	recs := schedule(&rng{s: seed}, ladder, stepLen)
	var rec recorder
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	sw := startSwaps(s, si, gen, tr, res)
	start := time.Now()
	for i := range recs {
		r := &recs[i]
		idx := pickKeys(seed, i)
		keys := si.batch(idx)
		if d := r.due - time.Since(start); d > 0 {
			sleep(d)
		}
		sem <- struct{}{}
		r.released = time.Since(start)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			ctx, cancel := callCtx()
			defer cancel()
			id := tr.newID()
			t0 := time.Now()
			lr, err := s.clients[0].Lookup(ctx, keys)
			t1 := time.Now()
			tr.record(id, 0, uint64(i+1), "client.Lookup", t0, t1)
			r.done = t1.Sub(start)
			switch {
			case err != nil:
				r.outcome = callFailed
				fmt.Fprintf(os.Stderr, "perfbench: lookup %d: %v\n", i, err)
			case si.checkLookup(idx, lr.Generation, lr.Values) != nil:
				r.outcome = callWrong
				res.mismatch("lookup %d: %v", i, si.checkLookup(idx, lr.Generation, lr.Values))
			default:
				r.outcome = callOK
				if tr != nil {
					rec.add(sampled{i: i, span: id})
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sw.finish()

	out := serveOutcome{swaps: sw, wall: wall, samples: rec.s, issued: len(recs) + sw.attempted}
	for k, rate := range ladder {
		st := step{Rate: rate, Seconds: stepLen.Seconds()}
		end := time.Duration(k+1) * stepLen
		first, last := end, time.Duration(0)
		for _, r := range recs {
			if r.step != k {
				continue
			}
			first, last = min(first, r.due), max(last, r.done)
			st.Attempted++
			if r.outcome != callOK {
				st.Failed++
			} else {
				st.Latencies = append(st.Latencies, ms(r.done-r.due))
			}
			if r.done > end {
				st.Backlog++
			}
		}
		st.Span = (last - first).Seconds()
		out.steps = append(out.steps, st)
	}
	for _, r := range recs {
		out.lag = append(out.lag, ms(r.released-r.due))
	}
	return out
}

func runServe(cfg config) (*result, error) {
	res := newResult()
	si, err := buildServeImages(cfg.seed)
	if err != nil {
		return nil, err
	}
	res.params["keys"] = serveKeys
	res.params["lookup_batch"] = lookupBatch
	res.params["image_bytes"] = len(si.images[0])
	res.params["swap_period_ms"] = ms(swapPeriod)
	res.params["callers"] = serveCallers
	res.params["ladder_rps"] = ladder
	res.params["nominal_rps"] = ladder[nominalStep]
	res.params["slo_p95_ms"] = sloLimitMs
	res.values["space_bits_per_item"] = float64(len(si.images[0])) * 8 / serveKeys

	s, err := setupServer(res, 2, func(s *served) error {
		ctx, cancel := callCtx()
		defer cancel()
		g, err := s.clients[1].SwapImage(ctx, si.images[0])
		if err != nil {
			return err
		}
		if g != 1 {
			return fmt.Errorf("first swap installed generation %d", g)
		}
		idx := pickKeys(cfg.seed, -1)
		lr, err := s.clients[0].Lookup(ctx, si.batch(idx))
		if err != nil {
			return err
		}
		return si.checkLookup(idx, lr.Generation, lr.Values)
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		l, sw := closedLookups(s, si, mix(cfg.seed^0xc105ed), cfg.seconds, res)
		reportLoop(res, l)
		res.attempted += sw.attempted
		res.failed += sw.failed
		res.params["swap_busy_frac"] = sw.busy.Seconds() / l.wall.Seconds()
		invariantMetrics(res, s.drain(res))
		return res, checkSamples(len(l.lat), cfg)
	}

	// The traced run steps through the open-loop ladder twice: once
	// untraced, for the SLO rate, lateness and failures, and once with
	// spans, for the server counters and the replay.
	seconds := cfg.seconds / 2
	untraced := openLoop(s, si, mix(cfg.seed^0x10ad), seconds, s.srv.Table().Generation(), nil, res)
	nom := untraced.steps[nominalStep]
	res.attempted = untraced.issued
	for _, st := range untraced.steps {
		res.failed += st.Failed
		fmt.Fprintf(os.Stderr, "perfbench: serve step %4.0f req/s: %d req, %d failed, backlog %d, p50 %.3f ms, p95 %.3f ms\n",
			st.Rate, st.Attempted, st.Failed, st.Backlog, percentile(st.Latencies, 0.5), percentile(st.Latencies, 0.95))
	}
	res.failed += untraced.swaps.failed
	res.values["slo_rps"] = sloRate(untraced.steps, sloLimitMs)
	res.values["loadgen.slo_rps"] = res.values["slo_rps"]
	res.values["loadgen.samples"] = float64(len(nom.Latencies))
	res.values["loadgen.fail_frac"] = float64(nom.Failed) / float64(max(nom.Attempted, 1))
	res.values["loadgen.lag_p95_ms"] = percentile(untraced.lag, 0.95)
	res.params["swap_busy_frac"] = untraced.swaps.busy.Seconds() / untraced.wall.Seconds()

	tr := newTracer()
	mark := s.mark()
	sampler := samplePool(s.srv.Runtime())
	traced := openLoop(s, si, mix(cfg.seed^0x7ace), seconds, s.srv.Table().Generation(), tr, res)
	sampler.finish(res)
	s.serverMetrics(res, mark, traced.issued)
	tnom := traced.steps[nominalStep]
	res.values["trace.overhead_frac"] = (nom.achieved() - tnom.achieved()) / nom.achieved()

	rejected, _ := s.srv.Table().SwapRejections()
	invariantMetrics(res, s.drain(res))
	n, err := replayServe(res, tr, si, traced.samples, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.values["serving.swap_rejections"] = float64(rejected + n)
	return res, nil
}

// closedLookups runs serveCallers closed-loop callers of Lookup on the
// first connection for seconds, beside the swap loop on the second.
func closedLookups(s *served, si *serveImages, seed uint64, seconds float64, res *result) (loopStats, *swapLoop) {
	sw := startSwaps(s, si, s.srv.Table().Generation(), nil, res)
	l := closedLoop(serveCallers, seconds, func(_, i int) (time.Duration, outcome) {
		idx := pickKeys(seed, i)
		keys := si.batch(idx)
		ctx, cancel := callCtx()
		defer cancel()
		t0 := time.Now()
		lr, err := s.clients[0].Lookup(ctx, keys)
		d := time.Since(t0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: lookup %d: %v\n", i, err)
			return d, callFailed
		}
		if err := si.checkLookup(idx, lr.Generation, lr.Values); err != nil {
			res.mismatch("lookup %d: %v", i, err)
			return d, callWrong
		}
		return d, callOK
	})
	sw.finish()
	return l, sw
}

// replayServe times the serving layer's public calls on a private
// table: swaps, image opens, and lookups of recorded batches. It
// returns the private table's swap rejections.
func replayServe(res *result, tr *tracer, si *serveImages, samples []sampled, seed uint64) (int64, error) {
	parent := func(i int) (uint64, uint64) {
		if len(samples) == 0 {
			return 0, 0
		}
		s := samples[i%len(samples)]
		return s.span, uint64(s.i + 1)
	}
	tbl := repro.NewStaticTable()
	for i := 0; i < 6; i++ {
		p, req := parent(i)
		img := si.images[i%2]
		if err := tr.run(p, req, "layout.open", func() error {
			_, err := layout.Open(img)
			return err
		}); err != nil {
			return 0, err
		}
		if err := tr.run(p, req, "serving.swap", func() error {
			_, err := tbl.SwapImage(repro.AlignImage(img), nil)
			return err
		}); err != nil {
			return 0, err
		}
	}
	gen := tbl.Generation()
	out := make([]uint64, lookupBatch)
	for i := 0; i < 2000; i++ {
		p, req := parent(i)
		idx := pickKeys(seed, i)
		keys := si.batch(idx)
		var g uint64
		tr.run(p, req, "serving.lookup", func() error {
			g, _ = tbl.LookupBatch(keys, out)
			return nil
		})
		if g != gen {
			res.mismatch("private table served generation %d, want %d", g, gen)
		} else if err := si.checkLookup(idx, g, out); err != nil {
			res.mismatch("private table lookup: %v", err)
		}
	}
	res.spans = tr.finish()
	lookup := median(byName(res.spans, "serving.lookup"))
	res.values["serving.lookup_us"] = lookup * 1e3
	res.values["serving.swap_ms"] = median(byName(res.spans, "serving.swap"))
	res.values["layout.open_ms"] = median(byName(res.spans, "layout.open"))
	res.values["server.wire_ms"] = median(byName(res.spans, "client.Lookup")) - lookup
	n, _ := tbl.SwapRejections()
	return n, nil
}
