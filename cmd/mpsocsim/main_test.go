package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mpsocsim/internal/platform"
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
		"-set", "scale=0.05",
		"-set", "io=true",
		"-set", "io.irq.period=4000000",
		"-set", "io.irq.events=4",
		"-set", "io.dma.descriptors=-1",
		"-set", "io.alloc.ops=-1",
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
// dump. The run ends at central cycle 2,500, before the watchdog's first
// window closes, so the report says that no window was observed instead of
// calling a run that was still issuing fully wedged.
func TestBudgetExhaustionExitsWithStallReport(t *testing.T) {
	_, stderr, code := runCLI(t, "-set", "scale=0.3", "-budget", "0.01")
	if code != 3 {
		t.Fatalf("exit code = %d, want 3 (over budget)\nstderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"did not drain",
		"stall report: simulated-time budget",
		"fullest FIFOs",
		"no watchdog window has closed yet",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
	if strings.Contains(stderr, "fully wedged") {
		t.Errorf("stderr calls the run fully wedged before any watchdog window closed:\n%s", stderr)
	}
}

// TestTelemetryFlagWritesNDJSON runs a small draining workload with
// -telemetry and validates the emitted stream: one JSON object per line,
// each carrying the schema tag and dense sequence numbers.
func TestTelemetryFlagWritesNDJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tele.ndjson")
	_, stderr, code := runCLI(t,
		"-set", "scale=0.2",
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

// TestWaveformFlagsWriteCSVAndVCD runs -trace and -vcd together on both
// memory variants: the CSV header and the VCD declarations carry the
// completed total, the memory input-queue depth and a bridge's outstanding
// count, the VCD is stamped in picoseconds, and both hold one entry per
// telemetry record.
func TestWaveformFlagsWriteCSVAndVCD(t *testing.T) {
	for _, tc := range []struct{ memory, queue string }{
		{"lmi", "lmi.lmi.queue_depth"},
		{"onchip", "mem.shmem.queue_depth"},
	} {
		t.Run(tc.memory, func(t *testing.T) {
			dir := t.TempDir()
			csvPath, vcdPath := filepath.Join(dir, "run.csv"), filepath.Join(dir, "run.vcd")
			_, stderr, code := runCLI(t, "-set", "scale=0.2", "-set", "memory="+tc.memory,
				"-trace", csvPath, "-vcd", vcdPath, "-telemetry-every", "256")
			if code != 0 {
				t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, stderr)
			}
			rows := readCSV(t, csvPath)
			header := strings.Join(rows[0], ",")
			if !strings.HasPrefix(header, "cycle,time_ps,issued,completed,") {
				t.Fatalf("CSV header = %q", header)
			}
			vcd, err := os.ReadFile(vcdPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(vcd, []byte("$timescale 1ps $end\n")) {
				t.Fatalf("VCD does not open with a 1 ps timescale:\n%.200s", vcd)
			}
			for _, col := range []string{"completed", tc.queue, "bridge.n5_dma_br.outstanding"} {
				if !strings.Contains(","+header+",", ","+col+",") {
					t.Errorf("CSV header lacks %q: %s", col, header)
				}
				if !bytes.Contains(vcd, []byte(" "+col+" $end\n")) {
					t.Errorf("VCD declares no %q variable", col)
				}
			}
			for i, row := range rows[1:] {
				if len(row) != len(rows[0]) {
					t.Fatalf("CSV row %d has %d fields, the header %d", i, len(row), len(rows[0]))
				}
			}
			if stamps := bytes.Count(vcd, []byte("\n#")); stamps != len(rows)-1 {
				t.Fatalf("VCD has %d time stamps, the CSV %d rows", stamps, len(rows)-1)
			}
		})
	}
}

// TestWaveformAcrossCheckpointRestore: -trace composes with both sides of a
// checkpoint. The checkpointing run's CSV covers the whole run, byte for
// byte the uninterrupted run's, and the restored run's CSV holds exactly the
// uninterrupted rows past the checkpoint cycle.
func TestWaveformAcrossCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	for _, args := range [][]string{
		{"-trace", path("plain.csv")},
		{"-trace", path("cold.csv"), "-checkpoint-at", "3000", "-checkpoint", path("run.ckpt")},
		{"-trace", path("warm.csv"), "-vcd", path("warm.vcd"), "-restore", path("run.ckpt")},
	} {
		args = append([]string{"-set", "scale=0.2", "-telemetry-every", "100"}, args...)
		if _, stderr, code := runCLI(t, args...); code != 0 {
			t.Fatalf("%v: exit code = %d, want 0\nstderr:\n%s", args, code, stderr)
		}
	}
	plain, err := os.ReadFile(path("plain.csv"))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := os.ReadFile(path("cold.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, cold) {
		t.Fatal("the checkpointing run's CSV differs from the uninterrupted run's")
	}
	coldRows, warmRows := readCSV(t, path("cold.csv")), readCSV(t, path("warm.csv"))
	want := [][]string{coldRows[0]}
	for _, row := range coldRows[1:] {
		cycle, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if cycle > 3000 {
			want = append(want, row)
		}
	}
	if len(want) < 2 || !reflect.DeepEqual(warmRows, want) {
		t.Fatalf("restored CSV has %d rows, the uninterrupted run %d past cycle 3000 (or they differ)", len(warmRows)-1, len(want)-1)
	}
}

// chromeEvent is the part of a Chrome trace event the tests read.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// readChrome reads a -chrome-trace file and splits its counter ("C") events
// from its lifecycle and phase ("X") events.
func readChrome(t *testing.T, path string) (counters, slices []chromeEvent) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "C":
			counters = append(counters, ev)
		case "X":
			slices = append(slices, ev)
		}
	}
	return counters, slices
}

// TestChromeTraceCounterTracks covers -chrome-trace's counter tracks, which
// read the telemetry collector's records: one event per gauge per record,
// stamped at the record's instant (every -telemetry-every central cycles,
// plus the run's final instant); a warning, not a failure, when the ring
// drops records; and, after -restore, tracks that start at the first cadence
// instant past the checkpoint while the lifecycle slices, which travel with
// the capture in the checkpoint, equal the uninterrupted run's.
func TestChromeTraceCounterTracks(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	// The central clock runs at 250 MHz: one cycle is 4,000 ps.
	const centralPS = 4000
	psOf := func(ev chromeEvent) int64 { return int64(math.Round(ev.Ts * 1e6)) }

	t.Run("cadence", func(t *testing.T) {
		if _, stderr, code := runCLI(t, "-set", "scale=0.2", "-telemetry-every", "256", "-chrome-trace", path("c256.json")); code != 0 {
			t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, stderr)
		}
		counters, _ := readChrome(t, path("c256.json"))
		var stamps []int64
		for _, ev := range counters {
			if ev.Name == "lmi.lmi.queue_depth" {
				if ps := psOf(ev); len(stamps) == 0 || stamps[len(stamps)-1] != ps {
					stamps = append(stamps, ps)
				}
			}
		}
		if len(stamps) != 49 {
			t.Fatalf("lmi.lmi.queue_depth has %d distinct stamps, want 49", len(stamps))
		}
		for i, ps := range stamps[:len(stamps)-1] {
			if ps != int64(i+1)*256*centralPS {
				t.Fatalf("stamp %d is %d ps, want the cadence instant %d ps", i, ps, int64(i+1)*256*centralPS)
			}
		}
		if last, prev := stamps[len(stamps)-1], stamps[len(stamps)-2]; last <= prev {
			t.Fatalf("final stamp %d ps is not after the last cadence instant %d ps", last, prev)
		}
	})

	t.Run("ring overflow", func(t *testing.T) {
		_, stderr, code := runCLI(t, "-set", "scale=0.2", "-telemetry-every", "8", "-chrome-trace", path("c8.json"))
		if code != 0 {
			t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, stderr)
		}
		if !strings.Contains(stderr, "counter tracks of "+path("c8.json")+" lost their") || !strings.Contains(stderr, "raise -telemetry-every") {
			t.Fatalf("stderr lacks the counter-track overflow warning:\n%s", stderr)
		}
	})

	t.Run("restore", func(t *testing.T) {
		for _, args := range [][]string{
			{"-chrome-trace", path("cold.json"), "-checkpoint-at", "3000", "-checkpoint", path("run.ckpt")},
			{"-chrome-trace", path("warm.json"), "-restore", path("run.ckpt")},
		} {
			args = append([]string{"-set", "scale=0.2"}, args...)
			if _, stderr, code := runCLI(t, args...); code != 0 {
				t.Fatalf("%v: exit code = %d, want 0\nstderr:\n%s", args, code, stderr)
			}
		}
		coldC, coldX := readChrome(t, path("cold.json"))
		warmC, warmX := readChrome(t, path("warm.json"))
		if len(coldC) == 0 || len(warmC) == 0 {
			t.Fatalf("counter events: %d cold, %d restored", len(coldC), len(warmC))
		}
		// The default cadence is 1,024 cycles: the first record after the
		// restore at cycle 3000 is cycle 3072, 12.288 us.
		if got := psOf(warmC[0]); got != 3072*centralPS {
			t.Fatalf("restored counter tracks start at %d ps, want 3072 cycles (%d ps)", got, 3072*centralPS)
		}
		if len(coldX) == 0 || !reflect.DeepEqual(warmX, coldX) {
			t.Fatalf("restored lifecycle slices differ from the uninterrupted run's (%d vs %d)", len(warmX), len(coldX))
		}
	})
}

// readCSV reads a -trace file and requires a header and at least one row.
func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(rows) < 2 {
		t.Fatalf("%s holds %d lines, want a header and rows", path, len(rows))
	}
	return rows
}

// TestFlagConflictsExitUsage pins the exit-2 contract for contradictory
// flag combinations: each must be rejected with the usage-error prefix
// before any file but the -config spec is opened or any cycle simulated.
// The io.* keys get the same checks from a -config file as from -set.
func TestFlagConflictsExitUsage(t *testing.T) {
	dir := t.TempDir()
	conf := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("[platform]\n"+body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	noIO := conf("noio.conf", "scale = 0.2\nio.irq.agents = 3\n")
	withIO := conf("io.conf", "io = true\nio.irq.agents = 3\n")
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
		{"restore with checkpoint",
			[]string{"-restore", "warm.ckpt", "-checkpoint", "run.ckpt", "-checkpoint-at", "3000"},
			"-restore is mutually exclusive with -checkpoint"},
		{"io key without io",
			[]string{"-set", "io.irq.agents=3"},
			"io.* keys need io=true"},
		{"io key with replay",
			[]string{"-set", "io=true", "-set", "io.irq.agents=3", "-replay", "ref.trc"},
			"io.* keys conflict with -replay"},
		{"io key from config without io",
			[]string{"-config", noIO},
			"io.* keys need io=true"},
		{"io key from config with replay",
			[]string{"-config", withIO, "-replay", "ref.trc"},
			"io.* keys conflict with -replay"},
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
	if _, stderr, code := runCLI(t, "-set", "scale=0.1", "-report", aPath); code != 0 {
		t.Fatalf("run A exit %d:\n%s", code, stderr)
	}
	if _, stderr, code := runCLI(t, "-set", "scale=0.1", "-set", "protocol=ahb", "-report", bPath); code != 0 {
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
		"-set", "memory=onchip", "-set", "scale=0.05",
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

// TestSetOverridesConfig runs a -config file under -set pairs and reads the
// spec back from the report: a pair overrides the file's key, keys no pair
// names keep the file's values, and the last of two pairs for one key wins.
func TestSetOverridesConfig(t *testing.T) {
	dir := t.TempDir()
	conf, report := filepath.Join(dir, "plat.conf"), filepath.Join(dir, "run.json")
	text := "[platform]\nprotocol = ahb\nmemory = onchip\nscale = 0.1\nseed = 5\n"
	if err := os.WriteFile(conf, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runCLI(t, "-config", conf,
		"-set", "seed=9", "-set", "protocol=axi", "-set", "protocol=stbus", "-report", report)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, stderr)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spec struct {
			Protocol string  `json:"protocol"`
			Memory   string  `json:"memory"`
			Scale    float64 `json:"workload_scale"`
			Seed     uint64  `json:"seed"`
		} `json:"spec"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Spec; got.Protocol != "STBus" || got.Seed != 9 || got.Memory != "onchip" || got.Scale != 0.1 {
		t.Fatalf("report spec = %+v, want protocol STBus and seed 9 from -set, memory onchip and scale 0.1 from the file", got)
	}
}

// TestSetRejectsOutOfRangeValues: values the spec file rejects fail the
// same way as -set pairs, with the key's own message and exit status 1,
// instead of running with a substituted default.
func TestSetRejectsOutOfRangeValues(t *testing.T) {
	for _, c := range []struct {
		pairs []string
		want  string
	}{
		{[]string{"scale=0"}, `scale wants a number in (0, 1000], got "0"`},
		{[]string{"scale=-1"}, `scale wants a number in (0, 1000], got "-1"`},
		{[]string{"waitstates=-3"}, `waitstates wants an integer >= 0, got "-3"`},
		{[]string{"io=true", "io.irq.deadline=-4"}, `io.irq.deadline wants an integer >= 0, got "-4"`},
		{[]string{"io=true", "io.irq.events=-3"}, `io.irq.events wants an integer >= 0, got "-3"`},
		{[]string{"protocol=pci"}, `protocol wants stbus|ahb|axi, got "pci"`},
	} {
		t.Run(c.pairs[len(c.pairs)-1], func(t *testing.T) {
			var args []string
			text := "[platform]\n"
			for _, kv := range c.pairs {
				args = append(args, "-set", kv)
				key, val, _ := strings.Cut(kv, "=")
				text += key + " = " + val + "\n"
			}
			conf := filepath.Join(t.TempDir(), "plat.conf")
			if err := os.WriteFile(conf, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, args := range [][]string{args, {"-config", conf}} {
				_, stderr, code := runCLI(t, args...)
				if code != 1 || !strings.Contains(stderr, c.want) {
					t.Errorf("%v: exit code %d, want 1 with %q\nstderr:\n%s", args, code, c.want, stderr)
				}
			}
		})
	}
}

// TestKeyTableThroughFileAndSet walks the key table: every key, set to a
// value other than its default, gives the same spec as a spec-file line and
// as a -set pair, and -h names it. A key missing from the test values
// fails the test, so a new row needs one here.
func TestKeyTableThroughFileAndSet(t *testing.T) {
	values := map[string]string{
		"protocol": "axi", "topology": "collapsed", "memory": "onchip",
		"waitstates": "4", "lmi.sdram.cas": "5", "stbustype": "2",
		"scale": "0.5", "seed": "7", "twophase": "true", "splitlmi": "true",
		"dsp": "false", "messaging": "false", "io": "true",
		"io.dma.descriptors": "-1", "io.dma.burst": "8", "io.irq.agents": "3",
		"io.irq.period": "300", "io.irq.deadline": "128", "io.irq.events": "12",
		"io.alloc.ops": "-1",
	}
	_, help, code := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("-h exit code = %d, want 0", code)
	}
	def := platform.DefaultSpec()
	for _, k := range platform.Keys() {
		val, ok := values[k.Name]
		if !ok {
			t.Errorf("key %s has no test value", k.Name)
			continue
		}
		fromFile, err := platform.ParseSpec(strings.NewReader("[platform]\n" + k.Name + " = " + val + "\n"))
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		fromSet, err := loadSpec("", []string{k.Name + "=" + val})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if reflect.DeepEqual(fromFile, def) {
			t.Errorf("%s = %s leaves the default spec unchanged", k.Name, val)
		}
		if !reflect.DeepEqual(fromFile, fromSet) {
			t.Errorf("%s = %s: the spec file gives %+v, -set %+v", k.Name, val, fromFile, fromSet)
		}
		if !strings.Contains(help, "\n    \t  "+k.Name+" ") {
			t.Errorf("-h does not list key %s", k.Name)
		}
	}
}
