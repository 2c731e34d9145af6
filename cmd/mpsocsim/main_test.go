package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mpsocsim/internal/telemetry"
)

// TestMain lets the test binary stand in for the real CLI: when re-executed
// with MPSOCSIM_RUN_MAIN=1 it runs main() instead of the test suite, so the
// exit-code contracts below are checked against the genuine flag parsing,
// run loop and stderr forensics without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("MPSOCSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-executes the test binary as the CLI with the given arguments.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MPSOCSIM_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("re-exec: %v", err)
	}
	return out.String(), errb.String(), code
}

// TestDeadlockExitsWithStallReport wedges the run on purpose (interrupt
// agents waiting for device events far beyond the watchdog window, every
// other I/O source disabled) and asserts the exit-2 contract: the DEADLOCK
// diagnostic plus the full stall-forensics dump on stderr, with no
// telemetry flag set.
func TestDeadlockExitsWithStallReport(t *testing.T) {
	_, stderr, code := runCLI(t,
		"-scale", "0.05",
		"-io",
		"-io-irq-period", "4000000",
		"-io-irq-events", "4",
		"-io-dma-desc", "-1",
		"-io-alloc-ops", "-1",
		"-budget", "5000",
	)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (deadlock)\nstderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"DEADLOCK",
		"stall report: progress watchdog fired",
		"fullest FIFOs",
		"oldest outstanding per initiator",
		"last progress per clock domain",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
}

// TestBudgetExhaustionExitsWithStallReport covers the exit-3 path: a budget
// far too small to drain the default workload still produces the forensic
// dump.
func TestBudgetExhaustionExitsWithStallReport(t *testing.T) {
	_, stderr, code := runCLI(t, "-scale", "0.3", "-budget", "0.01")
	if code != 3 {
		t.Fatalf("exit code = %d, want 3 (over budget)\nstderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"did not drain",
		"stall report: simulated-time budget",
		"fullest FIFOs",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
}

// TestTelemetryFlagWritesNDJSON runs a small draining workload with
// -telemetry and validates the emitted stream: one JSON object per line,
// each carrying the schema tag and dense sequence numbers.
func TestTelemetryFlagWritesNDJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tele.ndjson")
	_, stderr, code := runCLI(t,
		"-scale", "0.2",
		"-telemetry", path,
		"-telemetry-every", "256",
	)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) == 0 || len(lines[0]) == 0 {
		t.Fatal("telemetry file is empty")
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if m["schema"] != telemetry.Schema {
			t.Fatalf("line %d schema = %v", i, m["schema"])
		}
		if got := int64(m["seq"].(float64)); got != int64(i) {
			t.Fatalf("line %d seq = %d", i, got)
		}
	}
	if !strings.Contains(stderr, "telemetry records") {
		t.Errorf("stderr missing the record-count summary:\n%s", stderr)
	}
}

// TestFlagConflictsExitUsage pins the exit-2 contract for contradictory
// flag combinations: each must be rejected with the usage-error prefix
// before any file is opened or any cycle simulated.
func TestFlagConflictsExitUsage(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr fragment identifying the diagnostic
	}{
		{"diff with restore",
			[]string{"-diff", "a.json", "-restore", "warm.ckpt"},
			"-diff cannot be combined with -restore"},
		{"diff-stream with restore",
			[]string{"-diff-stream", "a.ndjson", "-telemetry", "b.ndjson", "-restore", "warm.ckpt"},
			"-diff-stream cannot be combined with -restore"},
		{"bisect with restore",
			[]string{"-bisect", "b.conf", "-restore", "warm.ckpt"},
			"-bisect cannot be combined with -restore"},
		{"diff with elastic replay",
			[]string{"-diff", "a.json", "-replay", "ref.trc", "-replay-mode", "elastic"},
			"-diff conflicts with -replay-mode elastic"},
		{"bisect with elastic replay",
			[]string{"-bisect", "b.conf", "-replay", "ref.trc", "-replay-mode", "elastic"},
			"-bisect conflicts with -replay-mode elastic"},
		{"diff with diff-stream",
			[]string{"-diff", "a.json", "-diff-stream", "a.ndjson", "-telemetry", "b.ndjson"},
			"both claim stdout"},
		{"diff-stream without telemetry",
			[]string{"-diff-stream", "a.ndjson"},
			"-diff-stream needs -telemetry"},
		{"bisect with diff",
			[]string{"-bisect", "b.conf", "-diff", "a.json"},
			"cannot be combined with -diff"},
		{"bisect with report",
			[]string{"-bisect", "b.conf", "-report", "run.json"},
			"-report has nothing to apply to under -bisect"},
		{"diff subcommand with one file",
			[]string{"diff", "a.json"},
			"exactly two input files"},
		{"checkpoint without checkpoint-at",
			[]string{"-checkpoint", "run.ckpt"},
			"-checkpoint needs -checkpoint-at"},
		{"checkpoint-at without checkpoint",
			[]string{"-checkpoint-at", "3000"},
			"-checkpoint-at needs -checkpoint"},
		{"checkpoint with trace",
			[]string{"-checkpoint", "run.ckpt", "-checkpoint-at", "3000", "-trace", "run.csv"},
			"-checkpoint is incompatible with -trace/-vcd"},
		{"restore with checkpoint",
			[]string{"-restore", "warm.ckpt", "-checkpoint", "run.ckpt", "-checkpoint-at", "3000"},
			"-restore is mutually exclusive with -checkpoint"},
		{"restore with vcd",
			[]string{"-restore", "warm.ckpt", "-vcd", "run.vcd"},
			"-restore is incompatible with -trace/-vcd"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2 (usage error)\nstderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, "usage error") {
				t.Errorf("stderr missing the usage-error prefix:\n%s", stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, stderr)
			}
		})
	}
}

// TestDiffSubcommandComparesReports drives the full CLI loop: two variant
// runs export reports, `mpsocsim diff` compares them, and the document must
// carry the diff schema and render byte-identically across invocations.
func TestDiffSubcommandComparesReports(t *testing.T) {
	dir := t.TempDir()
	aPath := filepath.Join(dir, "a.json")
	bPath := filepath.Join(dir, "b.json")
	if _, stderr, code := runCLI(t, "-scale", "0.1", "-report", aPath); code != 0 {
		t.Fatalf("run A exit %d:\n%s", code, stderr)
	}
	if _, stderr, code := runCLI(t, "-scale", "0.1", "-protocol", "ahb", "-report", bPath); code != 0 {
		t.Fatalf("run B exit %d:\n%s", code, stderr)
	}
	out1, stderr, code := runCLI(t, "diff", aPath, bPath)
	if code != 0 {
		t.Fatalf("diff exit %d:\n%s", code, stderr)
	}
	out2, _, code := runCLI(t, "diff", aPath, bPath)
	if code != 0 || out1 != out2 {
		t.Fatalf("diff output not stable across invocations (exit %d)", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out1), &doc); err != nil {
		t.Fatalf("diff output is not JSON: %v", err)
	}
	if doc["schema"] != "mpsocsim.diff/1" || doc["kind"] != "report" {
		t.Fatalf("schema/kind = %v/%v", doc["schema"], doc["kind"])
	}
	if counters, _ := doc["counters"].([]any); len(counters) == 0 {
		t.Fatalf("cross-fabric diff carries no counter deltas")
	}
}

// TestBisectFlagLocalizesPerturbation seeds a one-parameter perturbation
// (one extra on-chip wait state) through a variant-B config file and
// asserts the CLI bisection reports a positive diverged_at cycle.
func TestBisectFlagLocalizesPerturbation(t *testing.T) {
	conf := filepath.Join(t.TempDir(), "b.conf")
	text := "[platform]\nmemory = onchip\nscale = 0.05\nwaitstates = 2\n"
	if err := os.WriteFile(conf, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runCLI(t,
		"-memory", "onchip", "-scale", "0.05",
		"-bisect", conf, "-bisect-grid", "256",
	)
	if code != 0 {
		t.Fatalf("bisect exit %d:\n%s", code, stderr)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("bisect output is not JSON: %v", err)
	}
	if doc["schema"] != "mpsocsim.diff/1" || doc["kind"] != "bisect" {
		t.Fatalf("schema/kind = %v/%v", doc["schema"], doc["kind"])
	}
	div, _ := doc["diverged_at"].(float64)
	if div <= 0 {
		t.Fatalf("diverged_at = %v, want a positive cycle", doc["diverged_at"])
	}
	if !strings.Contains(stderr, "diverge at central cycle") {
		t.Errorf("stderr missing the divergence note:\n%s", stderr)
	}
}
