package main

import "testing"

// TestSmoke runs every workload for a second with tracing off and on,
// and checks each run reports the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short mode")
	}
	if err := runSmoke("../BENCHMARK.json", config{seed: 1, outDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
}

// TestMetricTablesAreUnique guards the metric tables against a name
// used twice, which the result line would silently collapse.
func TestMetricTablesAreUnique(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		seen := map[string]bool{}
		for _, d := range defs {
			if seen[d.name] {
				t.Errorf("metric %s listed twice", d.name)
			}
			seen[d.name] = true
		}
	}
}
