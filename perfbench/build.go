package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/layout"
	"repro/internal/parallel"
	"repro/internal/recurrence"
)

// buildKeys is the key count of one build request. At the MPHF's
// γ = 1.23 the key hypergraph has edge density ≈ 0.813, just below the
// 2-core threshold c*(2,3) ≈ 0.818, so its peel runs a long tail of
// tiny rounds.
const buildKeys = 1 << 17

// replaySamples is how many recorded requests a traced run replays.
const replaySamples = 3

// replayWorkers are the pool sizes every replayed stage is timed at.
var replayWorkers = []int{1, 2}

// sampled is a recorded request kept for replay.
type sampled struct {
	i    int    // request index
	span uint64 // the request's span
	seed uint64
	img  []byte
}

// recorder keeps the first replaySamples successful requests.
type recorder struct {
	mu sync.Mutex
	s  []sampled
}

func (r *recorder) add(s sampled) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.s) < replaySamples {
		r.s = append(r.s, s)
	}
}

// checkMPHF checks that img opens as an MPHF mapping keys to a
// permutation of [0, len(keys)).
func checkMPHF(img []byte, keys []uint64) error {
	f, err := repro.OpenMPHF(img)
	if err != nil {
		return fmt.Errorf("open image: %w", err)
	}
	seen := make([]bool, len(keys))
	for _, k := range keys {
		v := f.Lookup(k)
		if v < 0 || v >= len(keys) || seen[v] {
			return fmt.Errorf("key %#x maps to %d: not a permutation of [0, %d)", k, v, len(keys))
		}
		seen[v] = true
	}
	return nil
}

func runBuild(cfg config) (*result, error) {
	res := newResult()
	base := mix(cfg.seed ^ 0xb0b1d)
	keysFor := func(i int) []uint64 { return keyRange(base, i*buildKeys, (i+1)*buildKeys) }
	seedFor := func(i int) uint64 { return mix(cfg.seed<<20 + uint64(i)) }
	res.params["keys_per_request"] = buildKeys
	res.params["callers"] = 2
	res.params["gamma"] = 1.23

	next := 0 // request index; callers draw theirs from the loop's counter, offset by next
	s, err := setupServer(res, 2, func(s *served) error {
		ctx, cancel := callCtx()
		defer cancel()
		keys := keysFor(next)
		img, err := s.clients[0].BuildMPHF(ctx, keys, seedFor(next))
		next++
		if err != nil {
			return err
		}
		return checkMPHF(img, keys)
	})
	if err != nil {
		return nil, err
	}

	var rec recorder
	var bitsMu sync.Mutex
	var bits []float64
	phase := func(seconds float64, tr *tracer) loopStats {
		offset := next
		l := closedLoop(2, seconds, func(c, j int) (time.Duration, outcome) {
			i := offset + j
			keys := keysFor(i)
			ctx, cancel := callCtx()
			defer cancel()
			id := tr.newID()
			t0 := time.Now()
			img, err := s.clients[c].BuildMPHF(ctx, keys, seedFor(i))
			t1 := time.Now()
			tr.record(id, 0, uint64(i+1), "client.BuildMPHF", t0, t1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: build request %d: %v\n", i, err)
				return t1.Sub(t0), callFailed
			}
			if err := checkMPHF(img, keys); err != nil {
				res.mismatch("build request %d: %v", i, err)
				return t1.Sub(t0), callWrong
			}
			bitsMu.Lock()
			bits = append(bits, float64(len(img))*8/float64(len(keys)))
			bitsMu.Unlock()
			if tr != nil {
				rec.add(sampled{i: i, span: id, seed: seedFor(i), img: img})
			}
			return t1.Sub(t0), callOK
		})
		next += l.attempted
		return l
	}

	untraced, tr := measureLoop(cfg, res, s.srv.Runtime(), s, phase)
	res.values["space_bits_per_item"] = mean(bits)
	res.values["mphf.image_bits_per_key"] = mean(bits)
	invariantMetrics(res, s.drain(res))
	if err := checkSamples(len(untraced.lat), cfg); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := replayBuild(res, tr, rec.s, keysFor); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// replayBuild replays recorded build requests stage by stage through
// the layers' public calls, on private pools of each replayWorkers
// size, as children of the request spans.
func replayBuild(res *result, tr *tracer, samples []sampled, keysFor func(int) []uint64) error {
	ctx := context.Background()
	var rounds, tails []float64
	var model float64
	for _, w := range replayWorkers {
		pool := parallel.NewPool(w)
		sfx := fmt.Sprintf(".w%d", w)
		for _, s := range samples {
			keys := keysFor(s.i)
			f0, err := repro.OpenMPHF(s.img)
			if err != nil {
				return err
			}
			im := f0.Image()
			n := im.Vertices()
			req := uint64(s.i + 1)

			var edges []uint32
			// Chunked as the builder hashes its keys.
			if err := tr.run(s.span, req, "layout.hash"+sfx, func() error {
				edges = make([]uint32, len(keys)*layout.Arity)
				return pool.ForCtx(ctx, len(keys), 2048, func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						vs := layout.VertexTriple(im.HSeed, im.SubSize, keys[i])
						copy(edges[i*layout.Arity:], vs[:])
					}
				})
			}); err != nil {
				return err
			}
			var g *hypergraph.Hypergraph
			tr.run(s.span, req, "hypergraph.csr"+sfx, func() error {
				g = hypergraph.FromEdgesWithPool(n, layout.Arity, edges, im.SubSize, pool)
				return nil
			})
			var ord *core.OrderedResult
			if err := tr.run(s.span, req, "core.order_peel"+sfx, func() error {
				ord, err = core.ParallelOrderCtx(ctx, g, 2, core.Options{Pool: pool})
				return err
			}); err != nil {
				return err
			}
			if !ord.Empty() {
				res.mismatch("replayed peel of build request %d left a %d-edge core", s.i, ord.CoreEdges)
			}
			var f *repro.MPHF
			if err := tr.run(s.span, req, "mphf.build"+sfx, func() error {
				f, err = defaultPolicy.BuildMPHF(ctx, keys, s.seed, pool)
				return err
			}); err != nil {
				return err
			}
			tr.run(s.span, req, "layout.seal"+sfx, func() error {
				f.Image().Marshal()
				return nil
			})
			if !bytes.Equal(f.Bytes(), s.img) {
				res.mismatch("build request %d: in-process build at %d workers differs from the server's image", s.i, w)
			}
			if w == 2 {
				rounds = append(rounds, float64(ord.Rounds))
				tails = append(tails, float64(tailRounds(ord.RoundStart, 1024)))
				p := recurrence.Params{K: 2, R: layout.Arity, C: float64(len(keys)) / float64(n)}
				r, _, err := p.PredictRounds(float64(n), 10000)
				if err != nil {
					return err
				}
				model = float64(r)
			}
		}
		pool.Close()
	}
	res.spans = tr.finish()
	for _, w := range replayWorkers {
		sfx := fmt.Sprintf(".w%d", w)
		hash, csr, peel := stageMs(res, "layout.hash", sfx), stageMs(res, "hypergraph.csr", sfx), stageMs(res, "core.order_peel", sfx)
		build := stageMs(res, "mphf.build", sfx)
		stageMs(res, "layout.seal", sfx)
		res.values["mphf.rest_ms"+sfx] = build - hash - csr - peel
	}
	res.values["core.order_rounds"] = median(rounds)
	res.values["core.order_tail_rounds"] = median(tails)
	res.values["core.order_rounds_model"] = model
	res.values["server.wire_ms"] = median(byName(res.spans, "client.BuildMPHF")) - res.values["mphf.build_ms.w2"]
	return nil
}
