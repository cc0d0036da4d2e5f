package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeUnit builds a vet-config unit around one source file and returns
// the config path and the VetxOutput path.
func writeUnit(t *testing.T, src string, succeedOnTypecheckFailure bool) (string, string) {
	t.Helper()
	dir := t.TempDir()
	goFile := filepath.Join(dir, "unit.go")
	if err := os.WriteFile(goFile, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "unit.vetx")
	cfg := vetConfig{
		ID:                        "tmpvet",
		Compiler:                  "gc",
		Dir:                       dir,
		ImportPath:                "tmpvet",
		GoFiles:                   []string{goFile},
		VetxOutput:                vetx,
		SucceedOnTypecheckFailure: succeedOnTypecheckFailure,
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return cfgPath, vetx
}

func TestUnitcheckerFindings(t *testing.T) {
	cfgPath, vetx := writeUnit(t, "package tmpvet\n\nfunc f() {\n\tgo func() {}()\n}\n", false)
	var stderr bytes.Buffer
	code := RunUnitchecker(cfgPath, []*Analyzer{NoSpawn}, &stderr)
	if code != ExitFindings {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, ExitFindings, stderr.String())
	}
	if !strings.Contains(stderr.String(), "nospawn") {
		t.Errorf("stderr missing nospawn diagnostic: %s", stderr.String())
	}
	// The facts file must exist even when there are findings — cmd/go
	// caches it.
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOutput not written: %v", err)
	}
}

func TestUnitcheckerClean(t *testing.T) {
	cfgPath, vetx := writeUnit(t, "package tmpvet\n\nfunc f() int { return 1 }\n", false)
	var stderr bytes.Buffer
	if code := RunUnitchecker(cfgPath, Analyzers(), &stderr); code != ExitClean {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, ExitClean, stderr.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOutput not written: %v", err)
	}
}

func TestUnitcheckerTypecheckFailure(t *testing.T) {
	const broken = "package tmpvet\n\nfunc f() int { return undefined }\n"

	var stderr bytes.Buffer
	cfgPath, _ := writeUnit(t, broken, false)
	if code := RunUnitchecker(cfgPath, Analyzers(), &stderr); code != ExitError {
		t.Errorf("exit = %d, want %d for a broken unit", code, ExitError)
	}

	// With SucceedOnTypecheckFailure the real compile error is reported
	// by the build itself; vet must stay silent and succeed.
	stderr.Reset()
	cfgPath, vetx := writeUnit(t, broken, true)
	if code := RunUnitchecker(cfgPath, Analyzers(), &stderr); code != ExitClean {
		t.Errorf("exit = %d, want %d with SucceedOnTypecheckFailure", code, ExitClean)
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected output: %s", stderr.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOutput not written: %v", err)
	}
}

func TestUnitcheckerVetxOnly(t *testing.T) {
	cfgPath, vetx := writeUnit(t, "package tmpvet\n\nfunc f() {\n\tgo func() {}()\n}\n", false)
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	cfg.VetxOnly = true
	data, err = json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if code := RunUnitchecker(cfgPath, Analyzers(), &stderr); code != ExitClean {
		t.Fatalf("exit = %d, want %d in VetxOnly mode\nstderr: %s", code, ExitClean, stderr.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOutput not written: %v", err)
	}
}

// TestUnitcheckerStandardLibraryTrusted pins detflow's trust boundary
// under go vet. cmd/go runs the tool over standard-library dependencies
// too and hands their facts to importers; a root calling fmt.Sprintf
// must stay clean even when fmt's facts say "not deterministic" (as
// runtime's GC selects make them), exactly as in standalone mode. A
// root reaching a map range in another non-standard package through
// its vetx facts must still be flagged.
func TestUnitcheckerStandardLibraryTrusted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data with go list")
	}
	mod := t.TempDir()
	writeFile(t, filepath.Join(mod, "go.mod"), "module tmpmod\n\ngo 1.24\n")
	depSrc := filepath.Join(mod, "dep", "dep.go")
	writeFile(t, depSrc, "package dep\n\nfunc Shuffled(m map[int]int) int {\n\tfor k := range m {\n\t\treturn k\n\t}\n\treturn 0\n}\n")
	cmd := exec.Command("go", "list", "-export", "-f", "{{.ImportPath}} {{.Export}}", "fmt", "./dep")
	cmd.Dir = mod
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		exports[path] = file
	}

	// The dependency unit runs VetxOnly, as cmd/go runs it.
	depVetx := filepath.Join(mod, "dep.vetx")
	runUnit(t, vetConfig{
		ImportPath: "tmpmod/dep", GoFiles: []string{depSrc},
		VetxOnly: true, VetxOutput: depVetx,
	}, ExitClean)

	// fmt's facts as go vet produces them: Sprintf reaches a select in
	// the runtime.
	std := NewFactStore()
	std.put("fmt", "Sprintf", &Deterministic{Reason: "selects across channels at mgc.go:1815"})
	data, err := std.EncodePackage("fmt")
	if err != nil {
		t.Fatal(err)
	}
	fmtVetx := filepath.Join(mod, "fmt.vetx")
	writeFile(t, fmtVetx, string(data))

	for _, tc := range []struct {
		name, src string
		want      int
	}{
		{"stdlib call trusted", "package root\n\nimport \"fmt\"\n\n//peelvet:deterministic\nfunc Label(n int) string { return fmt.Sprintf(\"%d\", n) }\n", ExitClean},
		{"repo map range flagged", "package root\n\nimport \"tmpmod/dep\"\n\n//peelvet:deterministic\nfunc Pick(m map[int]int) int { return dep.Shuffled(m) }\n", ExitFindings},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := filepath.Join(t.TempDir(), "root.go")
			writeFile(t, src, tc.src)
			stderr := runUnit(t, vetConfig{
				ImportPath:  "tmpmod/root",
				GoFiles:     []string{src},
				PackageFile: exports,
				PackageVetx: map[string]string{"fmt": fmtVetx, "tmpmod/dep": depVetx},
				Standard:    map[string]bool{"fmt": true},
			}, tc.want)
			if tc.want == ExitFindings && !strings.Contains(stderr, "ranges over a map") {
				t.Errorf("finding does not name the map range: %s", stderr)
			}
		})
	}
}

// runUnit writes cfg as a vet config, runs every analyzer over it and
// checks the exit code, returning stderr.
func runUnit(t *testing.T, cfg vetConfig, want int) string {
	t.Helper()
	cfg.Compiler = "gc"
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "vet.cfg")
	writeFile(t, cfgPath, string(data))
	var stderr bytes.Buffer
	if code := RunUnitchecker(cfgPath, Analyzers(), &stderr); code != want {
		t.Fatalf("%s: exit = %d, want %d\nstderr: %s", cfg.ImportPath, code, want, stderr.String())
	}
	return stderr.String()
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}
