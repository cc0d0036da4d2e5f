package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

func TestRunThresholdsAndFigure1(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"thresholds", "figure1"}, &out); code != 0 {
		t.Fatalf("run returned %d, want 0\n%s", code, out.String())
	}
	got := out.String()
	if !regexp.MustCompile(`(?m)^2\s+4\s+0\.77228\d`).MatchString(got) {
		t.Errorf("threshold grid lacks c*_{2,4} = 0.77228\n%s", got)
	}
	for _, want := range []string{
		"Figure 1: beta_i near c* = 0.77228",
		"# plateau lengths (|beta - x*| < 0.1): ",
		"Theorem 1 round constants",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q\n%s", want, got)
		}
	}
	if strings.Contains(got, "== Table 1") {
		t.Error("named sections ran an unrequested section")
	}
}

func TestRunUnknownSection(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"table7"}, &out); code != 2 {
		t.Fatalf("run returned %d, want 2", code)
	}
	got := out.String()
	if !strings.Contains(got, `unknown section "table7"`) {
		t.Errorf("no unknown-section message\n%s", got)
	}
	for _, s := range sections {
		if !strings.Contains(got, s.name) {
			t.Errorf("section list lacks %q\n%s", s.name, got)
		}
	}
}
