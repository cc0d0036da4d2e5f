package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunScanAblation(t *testing.T) {
	cfg := ScanAblationConfig{K: 2, R: 4, C: 0.7, Ns: []int{1 << 14, 1 << 15}, Trials: 2, Seed: 3}
	rows := RunScanAblation(cfg)
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Frontier <= 0 || r.FullScan <= 0 {
			t.Errorf("non-positive timing: %+v", r)
		}
		if r.Rounds < 8 || r.Rounds > 16 {
			t.Errorf("implausible rounds %d", r.Rounds)
		}
	}
	var buf bytes.Buffer
	RenderScanAblation(&buf, rows)
	if !strings.Contains(buf.String(), "full/frontier") {
		t.Error("render missing header")
	}
}

func TestRunCuckooSweep(t *testing.T) {
	cfg := CuckooSweepConfig{
		R: 3, N: 15000,
		Loads:    []float64{0.75, 0.87, 0.95},
		Trials:   4,
		MaxKicks: 1500,
		Seed:     5,
	}
	rows := RunCuckooSweep(cfg)
	// Load 0.75: both succeed. 0.87: walk succeeds, peel fails.
	// 0.95: both fail.
	if rows[0].PeelSuccess != 1 || rows[0].WalkSuccess != 1 {
		t.Errorf("load 0.75: %+v", rows[0])
	}
	if rows[1].PeelSuccess != 0 || rows[1].WalkSuccess != 1 {
		t.Errorf("load 0.87: %+v", rows[1])
	}
	if rows[2].WalkSuccess != 0 {
		t.Errorf("load 0.95: %+v", rows[2])
	}
	var buf bytes.Buffer
	RenderCuckooSweep(&buf, rows)
	if !strings.Contains(buf.String(), "random-walk") {
		t.Error("render missing header")
	}
}

func TestRunXORSATSweep(t *testing.T) {
	cfg := XORSATSweepConfig{
		R: 3, N: 8000,
		Cs:     []float64{0.70, 0.87, 1.00},
		Trials: 3,
		Seed:   7,
	}
	rows := RunXORSATSweep(cfg)
	// c=0.70: peel-only and SAT. c=0.87: SAT via Gauss, no peel-only.
	// c=1.00: UNSAT.
	if rows[0].PeelOnlyRate != 1 || rows[0].SatRate != 1 {
		t.Errorf("c=0.70: %+v", rows[0])
	}
	if rows[1].PeelOnlyRate != 0 || rows[1].SatRate != 1 || rows[1].MeanCoreEqs == 0 {
		t.Errorf("c=0.87: %+v", rows[1])
	}
	if rows[2].SatRate != 0 {
		t.Errorf("c=1.00: %+v", rows[2])
	}
	var buf bytes.Buffer
	RenderXORSATSweep(&buf, rows)
	if !strings.Contains(buf.String(), "peel-only") {
		t.Error("render missing header")
	}
}

func TestRunEnsembleComparison(t *testing.T) {
	rows := RunEnsembleComparison(30000, 11)
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	byName := map[string]EnsembleRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Density 1.0 everywhere (within matching remainder).
	for _, r := range rows {
		if r.Density < 0.97 || r.Density > 1.03 {
			t.Errorf("%s: density %.3f, want ~1.0", r.Name, r.Density)
		}
	}
	// Regular: its own core. Poisson at density 1.0 > 0.818: partial
	// core. Bimodal: also a core, but never larger than regular's.
	if byName["3-regular"].CoreFraction < 0.99 {
		t.Errorf("regular core fraction %.3f, want ~1", byName["3-regular"].CoreFraction)
	}
	if f := byName["poisson(3)"].CoreFraction; f < 0.2 || f > 0.95 {
		t.Errorf("poisson core fraction %.3f, want partial", f)
	}
	if byName["bimodal 1/5"].CoreFraction >= byName["3-regular"].CoreFraction {
		t.Error("bimodal core should be below regular's")
	}
	var buf bytes.Buffer
	RenderEnsembleComparison(&buf, rows)
	if !strings.Contains(buf.String(), "3-regular") {
		t.Error("render missing rows")
	}
}

func TestRunDecoderAblation(t *testing.T) {
	cfg := DecoderAblationConfig{R: 3, Cells: 1 << 14, Load: 0.6, Trials: 2, Seed: 9}
	res := RunDecoderAblation(cfg)
	if res.Serial <= 0 || res.FullScan <= 0 || res.Frontier <= 0 {
		t.Errorf("non-positive timing: %+v", res)
	}
	if len(res.Mismatches) != 0 {
		t.Errorf("parallel decoders disagree with the serial decode: %q", res.Mismatches)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "frontier") {
		t.Error("render missing rows")
	}
}
