// Command perfbench is the repository's benchmark. It measures one
// workload per run against an in-process peeling server (the wire
// server of internal/server under peelserved's default flags, driven
// through internal/server/client over loopback) or, for the peel
// workload, against repro.Runtime directly.
//
//	perfbench --workload build --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics of a traced run, whose spans are written under --out. Every
// output is checked; a wrong output or a broken server invariant makes
// the command exit 1. --smoke runs every workload briefly, untraced and
// traced, and checks that each metric named in BENCHMARK.json appears.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0.
var endToEnd = []metricDef{
	{"req_per_s", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"space_bits_per_item", "bits"},
}

// stageTimers are the per-layer timers recorded once with a 1-worker
// and once with a 2-worker pool, under the suffixes .w1 and .w2.
var stageTimers = []metricDef{
	{"layout.hash_ms", "ms"},
	{"hypergraph.csr_ms", "ms"},
	{"core.order_peel_ms", "ms"},
	{"mphf.build_ms", "ms"},
	{"mphf.rest_ms", "ms"},
	{"layout.seal_ms", "ms"},
	{"iblt.reconcile_ms", "ms"},
	{"iblt.strata_ms", "ms"},
	{"iblt.decode_ms", "ms"},
	{"iblt.insert_ms", "ms"},
	{"core.peel_ms.below", "ms"},
	{"core.peel_ms.above", "ms"},
}

// perLayer are the metrics of single layers, reported by every workload
// with --trace 1. A layer a workload does not reach reports 0.
var perLayer = append(withWorkers(stageTimers), []metricDef{
	{"server.wire_ms", "ms"},
	{"server.req_bytes", "bytes"},
	{"server.reply_bytes", "bytes"},
	{"server.shed_frac", "fraction"},
	{"server.retries_per_req", "count"},
	{"server.reply_gap", "count"},
	{"server.frames_rejected", "count"},
	{"server.conn_panics", "count"},
	{"runtime.jobs_panicked", "count"},
	{"runtime.reconcile_attempts", "count"},
	{"client.reconcile_reseeds", "count"},
	{"parallel.busy_helpers_mean", "count"},
	{"parallel.queue_depth_max", "count"},
	{"core.order_rounds", "count"},
	{"core.order_rounds_model", "count"},
	{"core.order_tail_rounds", "count"},
	{"mphf.image_bits_per_key", "bits"},
	{"iblt.decode_subrounds", "count"},
	{"iblt.decode_subrounds_model", "count"},
	{"iblt.estimate_ratio", "ratio"},
	{"iblt.cells_per_diff", "ratio"},
	{"serving.lookup_us", "us"},
	{"serving.swap_ms", "ms"},
	{"layout.open_ms", "ms"},
	{"serving.swap_rejections", "count"},
	{"core.peel_rounds.below", "count"},
	{"core.peel_rounds.above", "count"},
	{"core.peel_rounds_model.below", "count"},
	{"core.core_frac.above", "fraction"},
	{"core.core_frac_model.above", "fraction"},
	{"loadgen.lag_p95_ms", "ms"},
	{"loadgen.samples", "count"},
	{"loadgen.fail_frac", "fraction"},
	{"loadgen.slo_rps", "req/s"},
	{"trace.overhead_frac", "fraction"},
}...)

func withWorkers(defs []metricDef) []metricDef {
	var out []metricDef
	for _, d := range defs {
		out = append(out, metricDef{d.name + ".w1", d.unit}, metricDef{d.name + ".w2", d.unit})
	}
	return out
}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	smoke    bool // short runs: the p95 sample-count rule is not enforced
}

// result is what a workload run reports. values holds metrics by name;
// units come from the metric tables.
type result struct {
	mu                sync.Mutex
	attempted, failed int
	wrong             []string // output mismatches and broken invariants
	values            map[string]float64
	params            map[string]any // sizes and rates, for provenance
	spans             []span
}

func newResult() *result {
	return &result{values: map[string]float64{}, params: map[string]any{}}
}

// mismatch records a wrong output or broken invariant.
func (r *result) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*result, error){
	"build":     runBuild,
	"reconcile": runReconcile,
	"serve":     runServe,
	"peel":      runPeel,
}

// workloadOrder is the order --smoke runs them in.
var workloadOrder = []string{"build", "reconcile", "serve", "peel"}

func main() {
	var cfg config
	var traceFlag int
	var smoke string
	flag.StringVar(&cfg.workload, "workload", "", "workload: build, reconcile, serve or peel")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench-traces", "directory for trace files")
	flag.StringVar(&smoke, "smoke", "", "path of BENCHMARK.json: run every workload briefly and check its metric names")
	flag.Parse()
	cfg.trace = traceFlag == 1

	if smoke != "" {
		if err := runSmoke(smoke, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench smoke:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench smoke: ok")
		return
	}
	line, err := runOne(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if line == "" {
			os.Exit(1)
		}
	}
	fmt.Println(line)
	if err != nil {
		os.Exit(1)
	}
}

// output is the result line's shape.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne runs one workload and returns its result line. A non-nil
// error with a line means the run finished but an output was wrong; a
// non-nil error without one means the run did not finish.
func runOne(cfg config) (string, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return "", fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return "", errors.New("--seconds must be positive")
	}
	res, err := run(cfg)
	if err != nil {
		return "", err
	}
	res.values["peak_rss_mb"] = peakRSSMiB()

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok {
			v = 0 // a layer this workload does not reach
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = metric{v, d.unit}
	}

	prov := newProvenance(cfg, res.params)
	pb, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pb)
	printTable(res, defs)
	if cfg.trace {
		path, werr := writeTrace(cfg.outDir, cfg.workload, cfg.seed, prov, metrics, res.spans)
		if werr != nil {
			return "", werr
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(res.spans), path)
	}

	b, err := json.Marshal(output{Correct: len(res.wrong) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: metrics})
	if err != nil {
		return "", err
	}
	if len(res.wrong) > 0 {
		return string(b), fmt.Errorf("wrong output or broken invariant: %s", strings.Join(res.wrong, "; "))
	}
	return string(b), nil
}

// printTable prints the reported metrics, plus the end-to-end figures
// that cannot sit in the result line (fail_frac is 0 on a healthy run,
// slo_rps exists only in serve's traced run), one per line with its
// unit.
func printTable(res *result, defs []metricDef) {
	extra := []metricDef{{"fail_frac", "fraction"}}
	if _, ok := res.values["slo_rps"]; ok {
		extra = append(extra, metricDef{"slo_rps", "req/s"})
	}
	res.values["fail_frac"] = float64(res.failed) / float64(max(res.attempted, 1))
	for _, d := range append(append([]metricDef(nil), defs...), extra...) {
		fmt.Printf("metric %-32s %14.6g %s\n", d.name, res.values[d.name], d.unit)
	}
}

// runSmoke runs every workload briefly with tracing off and on, and
// checks that each run reports exactly the metrics BENCHMARK.json names.
func runSmoke(benchPath string, base config) error {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			cfg := base
			cfg.workload, cfg.trace, cfg.seconds, cfg.smoke = name, traced, 1, true
			line, err := runOne(cfg)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", name, traced, err)
			}
			var out output
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				return fmt.Errorf("%s: result line: %w", name, err)
			}
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			if len(out.Metrics) != len(want) {
				return fmt.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(out.Metrics), len(want))
			}
			for _, w := range want {
				m, ok := out.Metrics[w.Name]
				if !ok || m.Unit != w.Unit {
					return fmt.Errorf("%s trace=%v: metric %s (%s) missing or with unit %q", name, traced, w.Name, w.Unit, m.Unit)
				}
			}
			if !out.Correct || out.Attempted < 1 {
				return fmt.Errorf("%s trace=%v: correct=%v attempted=%d", name, traced, out.Correct, out.Attempted)
			}
		}
	}
	return nil
}
