package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/server"
	"repro/internal/server/client"
)

// setupRepeats is how many times a run sets the system up; setup_s is
// their median. Every set-up but the last is drained again, which also
// exercises the drain invariants.
const setupRepeats = 15

// callTimeout bounds one client call, so a hung server fails the run
// instead of stalling it.
const callTimeout = 30 * time.Second

// defaultPolicy is the failure policy peelserved runs under its default
// flags.
var defaultPolicy = repro.Policy{BuildRetries: 2, ReconcileRetries: 2}

// mix is the splitmix64 finalizer, a bijection on uint64: distinct
// counters give distinct keys. The benchmark draws every input from it
// so the inputs do not depend on the program under test.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyRange returns the distinct keys mix(base+lo) .. mix(base+hi-1).
func keyRange(base uint64, lo, hi int) []uint64 {
	keys := make([]uint64, hi-lo)
	for i := range keys {
		keys[i] = mix(base + uint64(lo+i))
	}
	return keys
}

// rng is a small seeded generator (splitmix64 stream).
type rng struct{ s uint64 }

func (r *rng) next() uint64 { r.s += 0x9e3779b97f4a7c15; return mix(r.s) }

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

// provenance records the machine and inputs behind a result.
type provenance struct {
	CPU        string         `json:"cpu"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Params     map[string]any `json:"params"`
}

func newProvenance(cfg config, params map[string]any) provenance {
	return provenance{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Params:     params,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// countingListener counts the bytes the server reads and writes, so
// mean frame sizes are measured on the socket.
type countingListener struct {
	net.Listener
	read, written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.written.Add(int64(n))
	return n, err
}

// served is a running in-process server with its clients.
type served struct {
	srv     *server.Server
	ln      *countingListener
	done    chan error
	clients []*client.Client
}

// startServer starts the server peelserved runs under its default
// flags on a loopback listener, and dials nClients connections to it.
func startServer(nClients int) (*served, error) {
	srv := server.New(server.Options{Policy: defaultPolicy})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &served{srv: srv, ln: &countingListener{Listener: ln}, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(s.ln) }()
	for i := 0; i < nClients; i++ {
		s.clients = append(s.clients, client.Dial(ln.Addr().String(), client.Options{}))
	}
	return s, nil
}

// drain shuts the server down and checks its invariants: a clean
// drain, one reply per accepted request, and no rejected frame, killed
// connection or panicked job.
func (s *served) drain(res *result) server.Stats {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		res.mismatch("server drain: %v", err)
	}
	if err := <-s.done; err != nil {
		res.mismatch("server Serve: %v", err)
	}
	for _, c := range s.clients {
		c.Close()
	}
	st := s.srv.Stats()
	if st.RequestsAccepted != st.RepliesSent {
		res.mismatch("server accepted %d requests but sent %d replies", st.RequestsAccepted, st.RepliesSent)
	}
	if st.FramesRejected != 0 || st.ConnPanics != 0 || st.Runtime.JobsPanicked != 0 {
		res.mismatch("server frames_rejected=%d conn_panics=%d jobs_panicked=%d", st.FramesRejected, st.ConnPanics, st.Runtime.JobsPanicked)
	}
	return st
}

// invariantMetrics reports the drained server's invariant counts.
func invariantMetrics(res *result, st server.Stats) {
	res.values["server.reply_gap"] = float64(st.RequestsAccepted - st.RepliesSent)
	res.values["server.frames_rejected"] = float64(st.FramesRejected)
	res.values["server.conn_panics"] = float64(st.ConnPanics)
	res.values["runtime.jobs_panicked"] = float64(st.Runtime.JobsPanicked)
}

// setupServer sets the server up setupRepeats times; each time from
// server.New to the first successful reply of first. It keeps the last
// server running and records setup_s as the median.
func setupServer(res *result, nClients int, first func(*served) error) (*served, error) {
	var times []float64
	var s *served
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.drain(res)
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		t0 := time.Now()
		var err error
		if s, err = startServer(nClients); err != nil {
			return nil, err
		}
		if err := first(s); err != nil {
			s.drain(res)
			return nil, fmt.Errorf("setup: first request: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	res.values["setup_s"] = median(times)
	return s, nil
}

// phaseStats is the server counter movement over one request phase.
type phaseStats struct {
	before server.Stats
	read   int64
	wrote  int64
}

func (s *served) mark() phaseStats {
	return phaseStats{before: s.srv.Stats(), read: s.ln.read.Load(), wrote: s.ln.written.Load()}
}

// serverMetrics reports frame sizes, shedding and retries over the
// phase that started at p, in which the harness issued issued calls.
func (s *served) serverMetrics(res *result, p phaseStats, issued int) {
	st := s.srv.Stats()
	accepted := st.RequestsAccepted - p.before.RequestsAccepted
	replies := st.RepliesSent - p.before.RepliesSent
	if accepted > 0 {
		res.values["server.req_bytes"] = float64(s.ln.read.Load()-p.read) / float64(accepted)
		res.values["server.shed_frac"] = float64(st.RequestsShed-p.before.RequestsShed) / float64(accepted)
	}
	if replies > 0 {
		res.values["server.reply_bytes"] = float64(s.ln.written.Load()-p.wrote) / float64(replies)
	}
	if issued > 0 {
		res.values["server.retries_per_req"] = float64(accepted-int64(issued)) / float64(issued)
	}
}

// poolSampler samples a Runtime's pool counters until stopped.
type poolSampler struct {
	stop chan struct{}
	done chan struct{}
	busy []float64
	qmax int
}

func samplePool(rt *repro.Runtime) *poolSampler {
	p := &poolSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				st := rt.Stats()
				p.busy = append(p.busy, float64(st.BusyHelpers))
				p.qmax = max(p.qmax, st.QueueDepth)
			}
		}
	}()
	return p
}

// finish stops the sampler and reports its figures.
func (p *poolSampler) finish(res *result) {
	close(p.stop)
	<-p.done
	res.values["parallel.busy_helpers_mean"] = mean(p.busy)
	res.values["parallel.queue_depth_max"] = float64(p.qmax)
}

// outcome classifies one call.
type outcome int

const (
	callOK outcome = iota
	callFailed
	callWrong
)

// loopStats is a closed-loop phase as measured.
type loopStats struct {
	lat       []float64 // latencies of successful calls, ms
	attempted int
	failed    int
	wall      time.Duration
}

func (l loopStats) rps() float64 {
	return float64(l.attempted-l.failed) / l.wall.Seconds()
}

// closedLoop runs callers goroutines, each issuing its next call only
// after the previous one returned, until seconds have passed. A run
// that has not yet collected enough samples for p95 (see checkSamples)
// goes on until it has, for at most three times as long, so a slower
// program is measured rather than refused. call returns the latency of
// the measured call and its outcome; i numbers calls across all
// callers from 0.
func closedLoop(callers int, seconds float64, call func(caller, i int) (time.Duration, outcome)) loopStats {
	end, hardEnd := deadline(seconds), deadline(3*seconds)
	var next atomic.Int64
	var mu sync.Mutex
	var st loopStats
	var wg sync.WaitGroup
	more := func() bool {
		now := time.Now()
		if now.Before(end) {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		return now.Before(hardEnd) && highestPercentile(len(st.lat)) < 0.95
	}
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more() {
				i := int(next.Add(1) - 1)
				d, o := call(c, i)
				mu.Lock()
				st.attempted++
				if o == callOK {
					st.lat = append(st.lat, ms(d))
				} else {
					st.failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	return st
}

// measureLoop runs a closed-loop phase untraced and reports its
// end-to-end metrics. On a traced run each phase gets half the time and
// the phase runs again with spans on, sampling rt's pool and, when s is
// not nil, the server's counters. It returns the untraced phase and the
// tracer, nil on an untraced run.
func measureLoop(cfg config, res *result, rt *repro.Runtime, s *served, phase func(seconds float64, tr *tracer) loopStats) (loopStats, *tracer) {
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	untraced := phase(seconds, nil)
	reportLoop(res, untraced)
	if !cfg.trace {
		return untraced, nil
	}
	tr := newTracer()
	var mark phaseStats
	if s != nil {
		mark = s.mark()
	}
	sampler := samplePool(rt)
	traced := phase(seconds, tr)
	sampler.finish(res)
	if s != nil {
		s.serverMetrics(res, mark, traced.attempted)
	}
	res.values["trace.overhead_frac"] = (untraced.rps() - traced.rps()) / untraced.rps()
	return untraced, tr
}

// reportLoop sets the end-to-end metrics of a closed-loop phase.
func reportLoop(res *result, l loopStats) {
	res.attempted += l.attempted
	res.failed += l.failed
	res.values["req_per_s"] = l.rps()
	res.values["latency_p50_ms"] = percentile(l.lat, 0.5)
	res.values["latency_p95_ms"] = percentile(l.lat, 0.95)
	res.values["loadgen.samples"] = float64(len(l.lat))
	res.values["loadgen.fail_frac"] = float64(l.failed) / float64(max(l.attempted, 1))
}

// checkSamples enforces the percentile rule on an untraced run: p95 is
// reported only with at least minTail samples beyond it.
func checkSamples(n int, cfg config) error {
	if !cfg.trace && !cfg.smoke && highestPercentile(n) < 0.95 {
		return fmt.Errorf("only %d samples: too few for p95 (need %d beyond it); run longer", n, minTail)
	}
	return nil
}

// callCtx is the context of one client call.
func callCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), callTimeout)
}

// stageMs records the median duration of the spans called name+sfx as
// the metric name+"_ms"+sfx, and returns it.
func stageMs(res *result, name, sfx string) float64 {
	v := median(byName(res.spans, name+sfx))
	res.values[name+"_ms"+sfx] = v
	return v
}

// deadline returns the time seconds from now.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// tailRounds counts the rounds of an ordered peel that peeled fewer
// than limit edges.
func tailRounds(roundStart []int, limit int) int {
	n := 0
	for t := 1; t < len(roundStart); t++ {
		if roundStart[t]-roundStart[t-1] < limit {
			n++
		}
	}
	return n
}
