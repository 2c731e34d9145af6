// Command perfbench is the repository's benchmark. It runs one workload of
// simulator jobs in a closed loop for a fixed time, checks every job's
// simulated results, and prints each metric's value in the run's median job
// (its best job for allocations), with times scaled to the speed of a fixed
// reference model timed next to every job. The last line of its output is
// one JSON object:
//
//	{"correct": true, "attempted": 81, "failed": 0, "metrics": {"wall_s": {"value": 0.31, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones; BENCHMARK.json at the repository root lists both. Run it
// from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload ref_lmi --seed 1 --seconds 28 --trace 0
//
// The loop is one goroutine: each job starts when the previous one ends,
// after a forced collection that is not timed. The first job only warms up
// and is not measured; it runs seed 1, whose results are pinned, so that
// every run checks the model whatever its --seed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"mpsocsim/internal/platform"
)

// minJobs is the fewest measured jobs a run makes, however short --seconds.
const minJobs = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "traffic seed of the measured jobs")
	seconds := fs.Float64("seconds", 28, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with --trace 1, write the spans here as Chrome trace-event JSON")
	compare := fs.String("compare", "", "print each metric's change against this earlier result (its last line)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --seed > 0 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	expected, err := loadExpected()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	res := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, expected)
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "perfbench: failed job:", e)
	}
	metrics := endToEnd
	if *trace == 1 {
		metrics = perLayer
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %d measured jobs (%d attempted, %d failed), GOMAXPROCS %d, %s\n",
		w.name, *seed, len(res.stats), res.attempted, res.failed, runtime.GOMAXPROCS(0), runtime.Version())
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	var refs, raw []float64
	for _, d := range res.refs {
		refs = append(refs, d.Seconds())
	}
	for _, s := range res.stats {
		raw = append(raw, s.wall.Seconds())
	}
	fmt.Fprintf(stdout, "reference model: median %.2f ms over %d runs; times are scaled to %.0f ms per reference run (unscaled median wall_s %.6f)\n",
		1e3*median(refs), len(refs), 1e3*refSeconds, median(raw))
	fmt.Fprintln(stdout, "value is the median job, or the best job for allocations; quartiles are over jobs")
	fmt.Fprintf(stdout, "%-28s %14s %14s %14s %14s %14s %5s  %s\n", "metric", "value", "best", "q1", "median", "q3", "jobs", "unit")
	for _, m := range metrics {
		s := summarize(m, res.stats)
		fmt.Fprintf(stdout, "%-28s %14.6g %14.6g %14.6g %14.6g %14.6g %5d  %s\n", m.name, s.value, s.best, s.q1, s.median, s.q3, s.jobs, m.unit)
		line.Metrics[m.name] = value{Value: s.value, Unit: m.unit}
	}
	if res.tracer != nil {
		if err := reportTrace(stdout, res, *traceOut); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if *compare != "" {
		if err := compareWith(stdout, *compare, "BENCHMARK.json", metrics, line); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runResult is what one benchmark run measured.
type runResult struct {
	attempted, failed int
	errs              []error
	// stats holds the measured jobs that passed the correctness gate and
	// timed their calls.
	stats []jobStats
	// tracer holds the spans of the traced jobs; nil when not tracing.
	tracer *tracer
	// untimed holds a traced run's untimed jobs, which alternate with its
	// traced ones to measure what tracing costs.
	untimed []jobStats
	// refs holds the reference model's run times, one before each job and
	// one after the last.
	refs []time.Duration
	// classes is each kind of run's host time at reference speed and
	// simulated cycles, traced runs only.
	classes map[string]*classTotal
}

type classTotal struct {
	seconds float64
	cycles  int64
}

// warmSeed is the warm-up job's seed. Its results are pinned, so every run
// checks the model against testdata/expected.json, whatever its own seed.
const warmSeed = 1

// measure runs one warm-up job at warmSeed and then measured jobs at seed
// until d has passed (and at least minJobs ran). Every job must match e's
// pins for its seed; at a seed with no pins, every measured job must
// reproduce the first one instead. A traced run alternates traced jobs, which
// time each call and keep its span, with untimed jobs, which time only the
// whole job; its metrics come from the traced jobs alone.
//
// The reference model runs before every job and after the last one, and
// each job's scale is refSeconds over the mean of the two reference runs
// around it.
func measure(w workload, seed uint64, d time.Duration, traced bool, e expectations) runResult {
	var res runResult
	if traced {
		res.tracer = newTracer(w.name)
		res.classes = map[string]*classTotal{}
	}
	out := new(bytes.Buffer)
	runJob := func(id int, seed uint64, untimed bool, want []pin) (*job, jobStats, error) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		j, err := execute(w, seed, id, untimed, out)
		runtime.ReadMemStats(&after)
		res.attempted++
		if err == nil {
			err = check(j, want)
		}
		if err != nil {
			res.failed++
			res.errs = append(res.errs, fmt.Errorf("job %d (seed %d): %w", id, seed, err))
			return j, jobStats{}, err
		}
		s := statsOf(j)
		s.allocBytes = after.TotalAlloc - before.TotalAlloc
		s.allocs = after.Mallocs - before.Mallocs
		return j, s, nil
	}

	runReference := func() {
		runtime.GC()
		res.refs = append(res.refs, timeReference())
	}

	runReference()
	runJob(0, warmSeed, false, e.pinned(warmSeed, w.name))
	want := e.pinned(seed, w.name)
	var tracedJobs []*job
	start := time.Now()
	// Failing jobs end the wait for minJobs, so a broken build cannot loop.
	for id := 1; (len(res.stats) < minJobs && res.failed == 0) || time.Since(start) < d; id++ {
		runReference()
		untimed := traced && id%2 == 0
		j, s, err := runJob(id, seed, untimed, want)
		if err != nil {
			continue
		}
		if want == nil {
			want = pinsOf(j)
		}
		s.ref = len(res.refs) - 1
		if untimed {
			res.untimed = append(res.untimed, s)
			continue
		}
		res.stats = append(res.stats, s)
		if traced {
			res.tracer.addJob(j)
			tracedJobs = append(tracedJobs, j)
		}
	}
	runReference()
	for _, list := range [][]jobStats{res.stats, res.untimed} {
		for i := range list {
			k := list[i].ref
			list[i].scale = 2 * refSeconds / (res.refs[k] + res.refs[k+1]).Seconds()
		}
	}
	if !traced {
		return res
	}
	res.tracer.finish()
	for i, j := range tracedJobs {
		for _, r := range j.runs {
			for _, c := range runClasses(r) {
				t := res.classes[c]
				if t == nil {
					t = &classTotal{}
					res.classes[c] = t
				}
				t.seconds += r.dur.Seconds() * res.stats[i].scale
				t.cycles += r.res.CentralCycles
			}
		}
	}
	return res
}

// runClasses names the parts of the model a run exercises: its fabric, its
// memory subsystem, and I/O, capture or replay when present.
func runClasses(r simRun) []string {
	s := r.res.Spec
	classes := []string{strings.ToLower(s.Protocol.String()), "mem"}
	if s.Memory == platform.LMIDDR {
		classes[1] = "lmi"
	}
	if s.IO.Enable {
		classes = append(classes, "io")
	}
	if s.Replay != nil {
		classes = append(classes, "replay")
	}
	if r.tag == tagCapture {
		classes = append(classes, "instr")
	}
	return classes
}

// reportTrace prints the per-layer self-time table, host time per simulated
// cycle by model part, and the tracing overhead, and writes the Chrome trace.
func reportTrace(w io.Writer, res runResult, path string) error {
	fmt.Fprintln(w)
	sum := writeLayerTable(w, layerTable(res.tracer.spans))
	verdict := "ok"
	if sum < 0.99 || sum > 1.01 {
		verdict = "MISMATCH"
	}
	fmt.Fprintf(w, "self times sum to %.4f of job wall time: %s\n", sum, verdict)

	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %16s\n", "model part", "run_ns_per_cycle")
	names := make([]string, 0, len(res.classes))
	for c := range res.classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		t := res.classes[c]
		fmt.Fprintf(w, "%-10s %16.1f\n", c, 1e9*t.seconds/float64(t.cycles))
	}

	fmt.Fprintln(w)
	if len(res.untimed) > 0 {
		traced := summarize(endToEnd[0], res.stats).median
		untimed := summarize(endToEnd[0], res.untimed).median
		fmt.Fprintf(w, "tracing overhead: %+.2f%% (median wall_s %.6f traced, %.6f untimed)\n", 100*(traced/untimed-1), traced, untimed)
	}

	if path == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, res.tracer.spans); err != nil {
		return fmt.Errorf("render trace: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(w, "wrote %d spans to %s\n", len(res.tracer.spans), path)
	return nil
}
