package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/expected.json from seeds 1 and 2")

// lastLine runs the benchmark with args and decodes its result line.
func lastLine(t *testing.T, args ...string) (resultLine, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v (stderr %s)", lines[len(lines)-1], err, stderr.String())
	}
	return line, stdout.String(), code
}

func sortedKeys(m map[string]value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestNamesMatchBenchmarkJSON checks that the workloads and the metrics the
// benchmark emits, with their units and directions, are exactly the ones
// BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		trace    string
		declared []benchmarkMetric
		defined  []metric
	}{{"0", b.EndToEnd, endToEnd}, {"1", b.PerLayer, perLayer}} {
		line, _, code := lastLine(t, "--workload", "ref_lmi", "--seconds", "0", "--trace", tc.trace)
		if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Fatalf("trace %s: exit %d, result %+v", tc.trace, code, line)
		}
		var want []string
		for _, m := range tc.declared {
			want = append(want, m.Name)
			if v := line.Metrics[m.Name]; v.Unit != m.Unit {
				t.Errorf("trace %s: %s unit %q, BENCHMARK.json %q", tc.trace, m.Name, v.Unit, m.Unit)
			}
		}
		sort.Strings(want)
		if got := sortedKeys(line.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("trace %s emits %v, BENCHMARK.json declares %v", tc.trace, got, want)
		}
		for i, m := range tc.defined {
			if i >= len(tc.declared) || tc.declared[i].Better != m.better {
				t.Errorf("trace %s: %s direction %q does not match BENCHMARK.json", tc.trace, m.name, m.better)
			}
		}
	}
}

// TestExpected runs one job of every workload at seed 1 and checks it
// against the pins in testdata/expected.json. With -update it rewrites the
// pins from seeds 1 and 2 instead.
func TestExpected(t *testing.T) {
	e, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{1}
	if *update {
		seeds = []uint64{1, 2}
		e = expectations{}
	}
	for _, seed := range seeds {
		for _, w := range workloads {
			j, err := execute(w, seed, 0, false, new(bytes.Buffer))
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if *update {
				key := strconv.FormatUint(seed, 10)
				if e[key] == nil {
					e[key] = map[string][]pin{}
				}
				e[key][w.name] = pinsOf(j)
				continue
			}
			want := e.pinned(seed, w.name)
			if want == nil {
				t.Fatalf("%s seed %d has no pins; run with -update", w.name, seed)
			}
			if err := check(j, want); err != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, err)
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(e, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/expected.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptedExpectationFails checks that a job whose results do not match
// its pins counts as failed and makes the run incorrect.
func TestCorruptedExpectationFails(t *testing.T) {
	e, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("ref_lmi")
	want := append([]pin(nil), e.pinned(1, w.name)...)
	if len(want) == 0 {
		t.Fatal("ref_lmi seed 1 has no pins")
	}
	want[0].CentralCycles++
	corrupted := expectations{"1": {w.name: want}}
	// Seed 1 is pinned for the warm-up and the measured jobs alike; seed 3
	// is unpinned, so only the warm-up job can catch the corrupted pin.
	for _, seed := range []uint64{1, 3} {
		res := measure(w, seed, 0, false, corrupted)
		if res.failed == 0 || len(res.stats) != res.attempted-res.failed {
			t.Errorf("seed %d: attempted %d, failed %d, measured %d; want the corrupted pin to fail jobs",
				seed, res.attempted, res.failed, len(res.stats))
		}
		if seed == 1 && len(res.stats) != 0 {
			t.Errorf("seed 1: %d jobs passed a corrupted pin", len(res.stats))
		}
	}
}

// TestSelfTimes checks the self-time arithmetic on a synthetic tree with
// overlapping children and a child that outlives its parent.
func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "w", job: -1, parent: -1, start: ms(0), end: ms(100)},
		{name: "a", job: 1, parent: 0, start: ms(10), end: ms(40)},
		{name: "b", job: 1, parent: 0, start: ms(30), end: ms(60)},
		{name: "c", job: 1, parent: 0, start: ms(90), end: ms(120)},
		{name: "d", job: 1, parent: 1, start: ms(15), end: ms(20)},
	}
	want := []time.Duration{ms(100 - 50 - 10), ms(30 - 5), ms(30), ms(30), ms(5)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s self time %v, want %v", spans[i].name, got[i], want[i])
		}
	}

	// Two jobs of 100 ms: self times partition each job, so the shares sum
	// to 1 and the harness row gets what the calls leave.
	jobs := []span{
		{name: "w", job: -1, parent: -1, start: 0, end: ms(250)},
		{name: "job", job: 1, parent: 0, start: ms(0), end: ms(100)},
		{name: "Platform.Run", job: 1, parent: 1, start: ms(5), end: ms(95)},
		{name: "job", job: 2, parent: 0, start: ms(150), end: ms(250)},
		{name: "Platform.Run", job: 2, parent: 3, start: ms(150), end: ms(230)},
		{name: "Result.WriteJSON", job: 2, parent: 3, start: ms(230), end: ms(240)},
	}
	rows := layerTable(jobs)
	var sum float64
	byName := map[string]layerRow{}
	for _, r := range rows {
		sum += r.share
		byName[r.name] = r
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if r := byName["Platform.Run"]; r.selfPerJob != ms(85) || r.callsPerJob != 1 {
		t.Errorf("Platform.Run row %+v, want 85ms and 1 call per job", r)
	}
	if r := byName["job"]; r.selfPerJob != ms(10) {
		t.Errorf("harness row %+v, want 10ms per job", r)
	}
}

// TestChromeTrace checks that a traced run writes loadable trace-event JSON
// whose spans nest under their jobs.
func TestChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	_, out, code := lastLine(t, "--workload", "variant_sweep", "--seconds", "0", "--trace", "1", "--trace-out", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "of job wall time: ok") {
		t.Errorf("self-time check did not pass:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == callRun {
			runs++
			if p := ev.Args["parent"]; doc.TraceEvents[p].Name != "job" || doc.TraceEvents[p].Args["job"] != ev.Args["job"] {
				t.Fatalf("run span's parent is %+v, want its job", doc.TraceEvents[p])
			}
		}
	}
	if runs == 0 || runs%12 != 0 {
		t.Errorf("trace holds %d Platform.Run spans, want a multiple of the sweep's 12", runs)
	}
}

// TestCompareFlags checks which changes -compare flags: an end-to-end metric
// worse by more than its bound (for setup_s, also by more than the absolute
// floor), and any change to an exact count.
func TestCompareFlags(t *testing.T) {
	old := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(old, []byte(`some table
{"correct":true,"attempted":5,"failed":0,"metrics":{"wall_s":{"value":1,"unit":"s"},"sim_cycles_per_s":{"value":100,"unit":"cycles/s"},"setup_s":{"value":0.0002,"unit":"s"},"platform.central_cycles":{"value":1000,"unit":"count"}}}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		m    metric
		now  float64
		want string
	}{
		{endToEnd[0], 1.5, "REGRESSION"},
		{endToEnd[1], 101, ""},     // an improvement
		{endToEnd[2], 0.00028, ""}, // 40% worse, but by 0.08 ms
		{endToEnd[2], 0.0004, "REGRESSION"},
		{perLayer[6], 1001, "CHANGED"},
	} {
		var out bytes.Buffer
		cur := resultLine{Metrics: map[string]value{tc.m.name: {Value: tc.now}}}
		if err := compareWith(&out, old, "../BENCHMARK.json", []metric{tc.m}, cur); err != nil {
			t.Fatal(err)
		}
		if got := flagOf(out.String(), tc.m.name); got != tc.want {
			t.Errorf("%s -> %g flagged %q, want %q:\n%s", tc.m.name, tc.now, got, tc.want, out.String())
		}
	}
}

// flagOf returns the first word of the flag on name's row of a -compare
// table, "" for none.
func flagOf(out, name string) string {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 4 && f[0] == name {
			return f[4]
		}
	}
	return ""
}

// TestTimesAtReferenceSpeed checks that the reference model runs around
// every job and that each job's times are scaled by refSeconds over the mean
// of the two reference runs next to it.
func TestTimesAtReferenceSpeed(t *testing.T) {
	w, _ := findWorkload("ref_lmi")
	e, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	res := measure(w, 1, 0, false, e)
	// One reference run before the warm-up job, one before each measured
	// job and one after the last.
	if len(res.stats) != minJobs || len(res.refs) != minJobs+2 {
		t.Fatalf("%d jobs, %d reference runs; want %d and %d", len(res.stats), len(res.refs), minJobs, minJobs+2)
	}
	for i, s := range res.stats {
		if s.ref != i+1 {
			t.Errorf("job %d follows reference run %d, want %d", i, s.ref, i+1)
		}
		scale := 2 * refSeconds / (res.refs[i+1] + res.refs[i+2]).Seconds()
		if got, want := endToEnd[0].of(s), s.wall.Seconds()*scale; got != want {
			t.Errorf("job %d wall_s %g, want %g", i, got, want)
		}
	}
}

// TestTracedRunAlternates checks that a traced run's metrics come from its
// traced jobs alone, and that the untimed jobs in between record no calls.
func TestTracedRunAlternates(t *testing.T) {
	w, _ := findWorkload("ref_lmi")
	e, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	res := measure(w, 1, 0, true, e)
	if res.failed != 0 || len(res.stats) == 0 || len(res.untimed) == 0 {
		t.Fatalf("failed %d, traced %d, untimed %d; want no failures and both kinds", res.failed, len(res.stats), len(res.untimed))
	}
	for _, s := range res.stats {
		if s.run == 0 || s.inCalls > s.wall {
			t.Errorf("traced job: run %v, in calls %v, wall %v", s.run, s.inCalls, s.wall)
		}
	}
	for _, s := range res.untimed {
		if s.run != 0 || s.wall == 0 {
			t.Errorf("untimed job: run %v, wall %v; want only the wall time", s.run, s.wall)
		}
	}
	j, err := execute(w, 1, 0, true, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	if len(j.calls) != 0 || j.runs[0].dur != 0 {
		t.Errorf("untimed job recorded %d calls, run duration %v", len(j.calls), j.runs[0].dur)
	}
}
