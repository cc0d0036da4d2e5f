package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call: its name, its interval in nanoseconds since
// the tracer started, the span that caused it (0 for a root) and the
// request it belongs to.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID, so a span's children can name it as their
// parent before it ends.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(id, parent, req uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// run times fn as a span and returns its error.
func (t *tracer) run(parent, req uint64, name string, fn func() error) error {
	id := t.newID()
	start := time.Now()
	err := fn()
	t.record(id, parent, req, name, start, time.Now())
	return err
}

// finish fills in every span's self time.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[uint64][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = selfTime(interval{s.Start, s.End}, kids[s.ID])
	}
	return t.spans
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Count     int     `json:"count"`
	P50Ms     float64 `json:"p50_ms"`
	SelfP50Ms float64 `json:"self_p50_ms"`
}

// byName returns the durations in milliseconds of the spans called name.
func byName(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func summarize(spans []span) map[string]spanSummary {
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e6)
		selfs[s.Name] = append(selfs[s.Name], float64(s.Self)/1e6)
	}
	out := make(map[string]spanSummary, len(durs))
	for name, d := range durs {
		out[name] = spanSummary{Count: len(d), P50Ms: median(d), SelfP50Ms: median(selfs[name])}
	}
	return out
}

// writeTrace writes the run's provenance, per-layer metrics, span
// summary and spans as one JSON file under dir and returns its path.
func writeTrace(dir, workload string, seed uint64, prov provenance, metrics map[string]metric, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	doc := struct {
		Provenance provenance             `json:"provenance"`
		Metrics    map[string]metric      `json:"metrics"`
		Summary    map[string]spanSummary `json:"summary"`
		Spans      []span                 `json:"spans"`
	}{prov, metrics, summarize(spans), spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
