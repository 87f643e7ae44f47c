package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"fttt/internal/perfbench"
)

// synthetic writes a schema-valid report with every named scenario at
// the given median/allocs and returns its path.
func synthetic(t *testing.T, dir, name string, medianNs float64, allocs int64) string {
	t.Helper()
	rep := &perfbench.Report{
		Schema: perfbench.Schema, GoVersion: "go-test", GOOS: "linux", GOARCH: "amd64",
		GOMAXPROCS: 1, NumCPU: 1, Reps: 3,
	}
	for _, sc := range perfbench.Suite() {
		rep.Scenarios = append(rep.Scenarios, perfbench.ScenarioResult{
			Name: sc.Name, Kind: sc.Kind, Seed: sc.Seed, MapsTo: sc.MapsTo,
			Iters:   []int{100, 100, 100},
			NsPerOp: []float64{medianNs, medianNs, medianNs}, MedianNsPerOp: medianNs,
			AllocsPerOp: allocs,
		})
	}
	path := filepath.Join(dir, name)
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareExitCodes is the acceptance check: `fttt-perf compare`
// exits non-zero on an injected synthetic regression and zero on a
// clean run.
func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := synthetic(t, dir, "baseline.json", 1000, 84)
	same := synthetic(t, dir, "same.json", 1050, 84)
	slow := synthetic(t, dir, "slow.json", 2500, 84) // injected +150% regression
	leaky := synthetic(t, dir, "leaky.json", 1000, 500)

	var out, errw bytes.Buffer
	if code := run([]string{"compare", "-baseline", base, "-current", same}, &out, &errw); code != 0 {
		t.Fatalf("clean compare exited %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "core/localize") {
		t.Errorf("delta table missing scenarios:\n%s", out.String())
	}

	out.Reset()
	errw.Reset()
	if code := run([]string{"compare", "-baseline", base, "-current", slow}, &out, &errw); code != 2 {
		t.Fatalf("synthetic time regression exited %d, want 2 (stderr: %s)", code, errw.String())
	}
	if !strings.Contains(out.String(), "regression") {
		t.Errorf("delta table does not say regression:\n%s", out.String())
	}

	if code := run([]string{"compare", "-baseline", base, "-current", leaky}, &out, &errw); code != 2 {
		t.Fatalf("synthetic alloc regression exited %d, want 2", code)
	}

	// A generous explicit threshold lets the slow run pass.
	if code := run([]string{"compare", "-baseline", base, "-current", slow, "-threshold", "2.0"}, &out, &errw); code != 0 {
		t.Fatalf("compare with -threshold 2.0 exited %d, want 0", code)
	}
}

func TestCompareMissingScenarioFails(t *testing.T) {
	dir := t.TempDir()
	base := synthetic(t, dir, "baseline.json", 1000, 84)

	// Current run missing one scenario: truncate the synthetic report.
	rep, err := perfbench.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	rep.Scenarios = rep.Scenarios[:len(rep.Scenarios)-1]
	cur := filepath.Join(dir, "partial.json")
	if err := rep.WriteFile(cur); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := run([]string{"compare", "-baseline", base, "-current", cur}, &out, &errw); code != 2 {
		t.Fatalf("missing scenario exited %d, want 2", code)
	}
	if !strings.Contains(out.String(), "missing") {
		t.Errorf("table does not mark the missing scenario:\n%s", out.String())
	}
}

// TestCompareRefusesGOMAXPROCSMismatch: a pre-recorded report taken at
// another GOMAXPROCS than the baseline's is refused (exit 1, not judged).
func TestCompareRefusesGOMAXPROCSMismatch(t *testing.T) {
	dir := t.TempDir()
	base := synthetic(t, dir, "baseline.json", 1000, 84)
	rep, err := perfbench.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	rep.GOMAXPROCS = 4
	cur := filepath.Join(dir, "procs4.json")
	if err := rep.WriteFile(cur); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := run([]string{"compare", "-baseline", base, "-current", cur}, &out, &errw); code != 1 {
		t.Fatalf("GOMAXPROCS mismatch exited %d, want 1 (stderr: %s)", code, errw.String())
	}
	if !strings.Contains(errw.String(), "GOMAXPROCS=4") || !strings.Contains(errw.String(), "GOMAXPROCS=1") {
		t.Errorf("refusal does not name both settings: %s", errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("refused compare still printed a delta table:\n%s", out.String())
	}
}

func TestRunSubcommandWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "perf", "BENCH_test.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"run", "-o", out, "-scenarios", "^vector/diff$", "-benchtime", "1ms", "-reps", "2", "-label", "test"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	rep, err := perfbench.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 1 || rep.Scenarios[0].Name != "vector/diff" || rep.Label != "test" {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

func TestListAndUsage(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"list"}, &out, &errw); code != 0 {
		t.Fatalf("list exited %d", code)
	}
	for _, sc := range perfbench.Suite() {
		if !strings.Contains(out.String(), sc.Name) {
			t.Errorf("list missing %s", sc.Name)
		}
	}
	if code := run(nil, &out, &errw); code != 1 {
		t.Errorf("no-args exited %d, want 1", code)
	}
	if code := run([]string{"bogus"}, &out, &errw); code != 1 {
		t.Errorf("unknown subcommand exited %d, want 1", code)
	}
	if code := run([]string{"help"}, &out, &errw); code != 0 {
		t.Errorf("help exited %d, want 0", code)
	}
	if code := run([]string{"compare", "-baseline", "does/not/exist.json", "-current", "x"}, &out, &errw); code != 1 {
		t.Errorf("missing baseline exited %d, want 1", code)
	}
}
