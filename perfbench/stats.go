package main

import (
	"math"
	"slices"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a percentile with fewer samples beyond it is noise.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs:
// the smallest sample with at least p·n samples at or below it. It
// sorts a copy and returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailCount returns how many of n samples lie beyond the nearest-rank
// p-quantile.
func tailCount(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p*float64(n)))
}

// highestPercentile returns the highest of the candidate percentiles
// that leaves at least minTail samples beyond it, or 0 when even the
// median does not.
func highestPercentile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.5} {
		if tailCount(n, p) >= minTail {
			return p
		}
	}
	return 0
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// step is one rate of the open-loop ladder as measured.
type step struct {
	Rate      float64 // nominal arrivals per second
	Seconds   float64 // length of the step's arrival window
	Latencies []float64
	Attempted int
	Failed    int
	// Backlog is the number of requests due within the step that had
	// not completed when the step's window closed.
	Backlog int
	// Span is the time from the step's first due time to its last
	// completion, in seconds.
	Span float64
}

// achieved is the step's completed rate: successful requests per
// second from its first arrival to its last completion.
func (s step) achieved() float64 {
	if s.Span <= 0 {
		return 0
	}
	return float64(len(s.Latencies)) / s.Span
}

// keepsPace reports whether completions kept up with arrivals over the
// step: the backlog left at the window's end drains within the latency
// limit at the step's rate. A growing queue leaves a backlog that grows
// with the step's length; retries and ordinary jitter leave a few.
func (s step) keepsPace(limitMs float64) bool {
	return float64(s.Backlog) <= math.Max(1, s.Rate*limitMs/1e3)
}

// meetsSLO reports whether the step's p95 latency stays within limitMs
// with no failures and no growing backlog. Failed requests count as
// missing the limit, so any failure disqualifies the step.
func (s step) meetsSLO(limitMs float64) bool {
	if s.Failed > 0 || len(s.Latencies) == 0 || !s.keepsPace(limitMs) {
		return false
	}
	return percentile(s.Latencies, 0.95) <= limitMs
}

// sloRate is the highest ladder rate whose step meets the SLO; steps
// are taken in ascending rate order and the first miss ends the search,
// so a lucky step above an overloaded one does not count. It returns 0
// when the lowest step already misses.
func sloRate(steps []step, limitMs float64) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.meetsSLO(limitMs) {
			break
		}
		best = s.Rate
	}
	return best
}

// interval is a half-open time interval in nanoseconds.
type interval struct{ lo, hi int64 }

// selfTime returns the length of parent not covered by any child
// interval: the span's own time once its children's are taken out.
// Children may overlap one another or reach outside the parent; only
// their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if lo < hi {
			cs = append(cs, interval{lo, hi})
		}
	}
	slices.SortFunc(cs, func(a, b interval) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	covered := int64(0)
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.lo <= cur.hi:
			cur.hi = max(cur.hi, c.hi)
		default:
			covered += cur.hi - cur.lo
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.hi - parent.lo - covered
}
