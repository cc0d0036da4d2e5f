package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 0.5, 1},
		{1, 0.95, 1},
		{2, 0.5, 1},
		{10, 0.5, 5},
		{100, 0.95, 95},
		{200, 0.95, 190},
		{201, 0.95, 191},
		{1000, 0.99, 990},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	xs := seq(5)
	percentile(xs, 0.5)
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestSampleCountRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},
		{20, 0.5},
		{199, 0.9},
		{200, 0.95},
		{999, 0.95},
		{1000, 0.99},
		{10000, 0.999},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := tailCount(200, 0.95); got != 10 {
		t.Errorf("tailCount(200, 0.95) = %d, want 10", got)
	}
	if err := checkSamples(199, config{}); err == nil {
		t.Error("199 samples accepted for p95")
	}
	if err := checkSamples(200, config{}); err != nil {
		t.Errorf("200 samples rejected for p95: %v", err)
	}
	if err := checkSamples(5, config{trace: true}); err != nil {
		t.Errorf("traced run held to the sample rule: %v", err)
	}
}

func fastStep(rate float64) step {
	return step{Rate: rate, Seconds: 1, Latencies: []float64{1, 1, 2, 2, 3}, Attempted: 5}
}

func TestSLORate(t *testing.T) {
	slow := fastStep(1000)
	slow.Latencies = []float64{1, 2, 30, 40, 50}
	failing := fastStep(1000)
	failing.Failed = 1
	backlogged := fastStep(1000) // may leave 1000/s × 10 ms = 10 behind
	backlogged.Backlog = 11
	tolerable := fastStep(1000)
	tolerable.Backlog = 10
	lowBacklog := fastStep(50) // the floor of one request applies
	lowBacklog.Backlog = 1

	cases := []struct {
		name  string
		steps []step
		want  float64
	}{
		{"all meet", []step{fastStep(250), fastStep(500), fastStep(1000)}, 1000},
		{"p95 over limit", []step{fastStep(250), fastStep(500), slow}, 500},
		{"failure disqualifies", []step{fastStep(250), fastStep(500), failing}, 500},
		{"growing backlog", []step{fastStep(250), fastStep(500), backlogged}, 500},
		{"backlog within limit", []step{fastStep(250), fastStep(500), tolerable}, 1000},
		{"one-request floor", []step{lowBacklog}, 50},
		{"first miss ends search", []step{fastStep(250), slow, fastStep(2000)}, 250},
		{"lowest misses", []step{slow}, 0},
		{"no samples", []step{{Rate: 100}}, 0},
	}
	for _, c := range cases {
		if got := sloRate(c.steps, 10); got != c.want {
			t.Errorf("%s: sloRate = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{100, 200}
	cases := []struct {
		name string
		kids []interval
		want int64
	}{
		{"leaf", nil, 100},
		{"one child", []interval{{110, 130}}, 80},
		{"disjoint", []interval{{110, 130}, {150, 160}}, 70},
		{"overlapping", []interval{{110, 140}, {120, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"unsorted", []interval{{150, 160}, {110, 130}}, 70},
		{"clipped", []interval{{50, 120}, {190, 250}}, 70},
		{"outside", []interval{{0, 50}, {300, 400}}, 100},
		{"covering", []interval{{0, 300}}, 0},
		{"touching", []interval{{110, 120}, {120, 130}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(p, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.t0.Add(time.Duration(ns)) }
	root := tr.newID()
	kid := tr.newID()
	tr.record(kid, root, 1, "kid", at(10), at(30))
	tr.record(root, 0, 1, "root", at(0), at(100))
	spans := tr.finish()
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Name] = s.Self
	}
	if self["root"] != 80 || self["kid"] != 20 {
		t.Errorf("self times %v, want root 80 and kid 20", self)
	}
	var nilTracer *tracer
	if id := nilTracer.newID(); id != 0 {
		t.Errorf("nil tracer issued span ID %d", id)
	}
	nilTracer.record(1, 0, 0, "x", time.Now(), time.Now())
}

func TestTailRounds(t *testing.T) {
	// Rounds peel 5000, 2000, 1023, 1024 and 1 edges.
	rs := []int{0, 5000, 7000, 8023, 9047, 9048}
	if got := tailRounds(rs, 1024); got != 2 {
		t.Errorf("tailRounds = %d, want 2", got)
	}
}

func TestScheduleIsSeededAndSorted(t *testing.T) {
	stepLen := 200 * time.Millisecond
	a := schedule(&rng{s: 7}, ladder, stepLen)
	b := schedule(&rng{s: 7}, ladder, stepLen)
	want := 0
	for _, r := range ladder {
		want += int(math.Round(r * stepLen.Seconds()))
	}
	if len(a) != want || len(b) != want {
		t.Fatalf("schedule has %d and %d arrivals, want %d", len(a), len(b), want)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different arrival %d", i)
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
		lo := time.Duration(a[i].step) * stepLen
		if a[i].due < lo || a[i].due >= lo+stepLen {
			t.Fatalf("arrival %d due at %v, outside step %d", i, a[i].due, a[i].step)
		}
	}
}
