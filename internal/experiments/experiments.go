// Package experiments regenerates every table and figure of the paper's
// evaluation: the single-layer studies of §4.1 (many-to-many and many-to-one
// traffic), the platform-instance comparisons of Fig.3 and Fig.5, the
// memory-speed sweep of Fig.4 and the fine-grain LMI interface analysis of
// Fig.6. The same entry points back the experiment CLI, the examples and
// the benchmark harness.
//
// Every figure is a set of independent, hermetic, seed-deterministic
// platform runs, so each entry point fans its runs out through
// internal/runner. Results are consumed in submission order, which keeps
// every table byte-identical to a serial regeneration regardless of
// Options.Workers.
package experiments

import (
	"fmt"
	"io"

	"mpsocsim/internal/lmi"
	"mpsocsim/internal/platform"
	"mpsocsim/internal/runner"
	"mpsocsim/internal/stats"
	"mpsocsim/internal/telemetry"
)

// Budget is the simulated-time budget per run (5 ms is ample for every
// configuration at the default scale).
const Budget = 5e12

// Options tune experiment size; the zero value selects paper-scale runs
// executed across runtime.NumCPU() workers.
type Options struct {
	// Scale multiplies the workload (default 1.0; tests use less).
	Scale float64
	// Seed drives the traffic generators.
	Seed uint64
	// Workers bounds how many simulation runs execute concurrently:
	// <= 0 selects runtime.NumCPU(), 1 restores strictly serial
	// execution (the CLI's -j flag maps here).
	Workers int
	// Progress, when non-nil, receives the runner's live progress/ETA
	// line (the CLI passes os.Stderr; tests leave it nil).
	Progress io.Writer
	// Cache, when non-nil, warm-starts every platform run from an on-disk
	// checkpoint of its warm-up prefix (priming the cache on the first
	// encounter of each configuration). Results are bit-identical with or
	// without it; only wall-clock changes. A run that drains before the
	// prefix (most §4.1 runs at the default prefix) never primes it.
	Cache *SnapCache
	// Live, when non-nil, aggregates every platform run's in-run
	// telemetry (cycle position, simulated time against the budget) onto
	// one surface: the runner's progress line gains an aggregate cycles/s
	// and slowest-job ETA suffix, and the CLI can serve the hub's JSON
	// progress document over HTTP (-live). Purely observational: results
	// are byte-identical with or without it.
	Live *telemetry.Hub
}

func (o *Options) normalize() {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// pool translates the options into runner options for one labelled fan-out.
func (o Options) pool(label string) runner.Options {
	ro := runner.Options{Workers: o.Workers, Progress: o.Progress, Label: label}
	if o.Live != nil {
		ro.Extra = o.Live.Line
	}
	return ro
}

// Entry is one bar/point of a figure.
type Entry struct {
	Name       string
	Cycles     int64
	Normalized float64
	Note       string
}

// Series is a named list of entries with a caption.
type Series struct {
	Title   string
	Caption string
	Entries []Entry
}

// Write renders the series as an aligned table.
func (s Series) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n%s\n\n", s.Title, s.Caption); err != nil {
		return err
	}
	tbl := stats.NewTable("instance", "cycles", "normalized", "note")
	for _, e := range s.Entries {
		tbl.AddRow(e.Name, fmt.Sprint(e.Cycles), fmt.Sprintf("%.3f", e.Normalized), e.Note)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// normalizeEntries fills Normalized relative to the first entry.
func normalizeEntries(entries []Entry) {
	if len(entries) == 0 || entries[0].Cycles == 0 {
		return
	}
	base := float64(entries[0].Cycles)
	for i := range entries {
		entries[i].Normalized = float64(entries[i].Cycles) / base
	}
}

// platformJob wraps one platform run as a runner job. A run that
// fails to drain within the budget is an error, not a panic: under the
// runner one crashed configuration must not kill its siblings. With a
// warm-start cache the job restores (or primes) the configuration's
// warm-up checkpoint instead of building fresh.
func platformJob(name string, spec platform.Spec, o Options) runner.Job[platform.Result] {
	return runner.Job[platform.Result]{Name: name, Run: func() (platform.Result, error) {
		// With a live hub the run publishes its position from the telemetry
		// collector's hook: a coarse cadence (16k central cycles) keeps the
		// per-snapshot cost invisible, and the tiny ring is never drained —
		// only the latest position matters for aggregation.
		var attach func(*platform.Platform)
		if o.Live != nil {
			jp := o.Live.Job(name, Budget)
			defer jp.Finish()
			attach = func(p *platform.Platform) {
				col := p.EnableTelemetry(16384, 16)
				col.SetPublish(jp.Publish)
				col.SetBudgetPS(Budget)
			}
		}
		var r platform.Result
		var err error
		if o.Cache != nil {
			r, err = o.Cache.run(spec, attach)
		} else {
			var p *platform.Platform
			if p, err = platform.Build(spec); err == nil {
				if attach != nil {
					attach(p)
				}
				r = p.Run(Budget)
			}
		}
		if err != nil {
			return platform.Result{}, err
		}
		if !r.Done {
			return r, fmt.Errorf("%s did not drain within budget", spec.Name())
		}
		return r, nil
	}}
}

// cycleJob is platformJob reduced to the run's central-cycle count.
func cycleJob(name string, spec platform.Spec, o Options) runner.Job[int64] {
	inner := platformJob(name, spec, o)
	return runner.Job[int64]{Name: name, Run: func() (int64, error) {
		r, err := inner.Run()
		return r.CentralCycles, err
	}}
}

func baseSpec(o Options) platform.Spec {
	s := platform.DefaultSpec()
	s.WorkloadScale = o.Scale
	s.Seed = o.Seed
	return s
}

// Fig3 reproduces the paper's Fig.3: normalized execution time of platform
// instances with the on-chip shared memory (1 wait state).
func Fig3(o Options) (Series, error) {
	o.normalize()
	mk := func(name string, proto platform.Protocol, topo platform.Topology) runner.Job[int64] {
		s := baseSpec(o)
		s.Protocol, s.Topology, s.Memory = proto, topo, platform.OnChip
		return cycleJob(name, s, o)
	}
	jobs := []runner.Job[int64]{
		mk("collapsed AXI", platform.AXI, platform.Collapsed),
		mk("collapsed STBus", platform.STBus, platform.Collapsed),
		mk("full STBus", platform.STBus, platform.Distributed),
		mk("full AHB", platform.AHB, platform.Distributed),
		mk("full AXI", platform.AXI, platform.Distributed),
	}
	cycles, err := runner.Values(runner.Map(jobs, o.pool("fig3")))
	if err != nil {
		return Series{}, err
	}
	entries := []Entry{
		{Name: "collapsed AXI", Cycles: cycles[0]},
		{Name: "collapsed STBus", Cycles: cycles[1]},
		{Name: "full STBus", Cycles: cycles[2]},
		{Name: "full AHB", Cycles: cycles[3], Note: "blocking AHB-AHB bridges"},
		{Name: "full AXI", Cycles: cycles[4], Note: "lightweight AXI-AXI bridges"},
	}
	normalizeEntries(entries)
	return Series{
		Title: "Fig.3 — platform instances, on-chip shared memory (1 ws)",
		Caption: "Expected shape: collapsed AXI ~ collapsed STBus ~ full STBus;\n" +
			"full AHB clearly slower; full AXI ~ full AHB (lightweight bridges).",
		Entries: entries,
	}, nil
}

// Fig4Point is one memory-speed sample of the Fig.4 sweep.
type Fig4Point struct {
	WaitStates  int
	Distributed int64
	Collapsed   int64
	Ratio       float64
}

// Fig4Result is the distributed-vs-collapsed sweep.
type Fig4Result struct {
	Points []Fig4Point
}

// Fig4 reproduces the paper's Fig.4: distributed vs centralized performance
// as a function of memory speed, in the latency-sensitive regime (simple
// initiator interfaces, non-posted writes). A nil/empty waitStates selects
// the paper's 0..32 ladder; negative wait states are rejected.
func Fig4(o Options, waitStates []int) (Fig4Result, error) {
	o.normalize()
	if len(waitStates) == 0 {
		waitStates = []int{0, 1, 2, 4, 8, 16, 32}
	}
	var jobs []runner.Job[int64]
	for _, w := range waitStates {
		if w < 0 {
			return Fig4Result{}, fmt.Errorf("fig4: negative wait states %d", w)
		}
		for _, topo := range []platform.Topology{platform.Distributed, platform.Collapsed} {
			s := baseSpec(o)
			s.Protocol, s.Topology, s.Memory = platform.STBus, topo, platform.OnChip
			s.OnChipWaitStates = w
			s.OutstandingOverride = 1
			s.ForceNonPostedWrites = true
			jobs = append(jobs, cycleJob(fmt.Sprintf("%dws/%s", w, topo), s, o))
		}
	}
	cycles, err := runner.Values(runner.Map(jobs, o.pool("fig4")))
	if err != nil {
		return Fig4Result{}, err
	}
	var out Fig4Result
	for i, w := range waitStates {
		d, c := cycles[2*i], cycles[2*i+1]
		out.Points = append(out.Points, Fig4Point{
			WaitStates:  w,
			Distributed: d,
			Collapsed:   c,
			Ratio:       float64(d) / float64(c),
		})
	}
	return out, nil
}

// Write renders the sweep.
func (r Fig4Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "== Fig.4 — distributed vs centralized vs memory speed ==")
	fmt.Fprintln(w, "Expected shape: the distributed/collapsed ratio starts above 1 (crossing")
	fmt.Fprintln(w, "latency exposed by a fast memory) and falls toward parity as the memory")
	fmt.Fprintln(w, "slows and outstanding transactions fill the multi-hop path.")
	fmt.Fprintln(w)
	tbl := stats.NewTable("wait_states", "distributed", "collapsed", "ratio")
	for _, p := range r.Points {
		tbl.AddRow(fmt.Sprint(p.WaitStates), fmt.Sprint(p.Distributed),
			fmt.Sprint(p.Collapsed), fmt.Sprintf("%.3f", p.Ratio))
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Fig5 reproduces the paper's Fig.5: platform instances with the LMI memory
// controller and off-chip DDR SDRAM.
func Fig5(o Options) (Series, error) {
	o.normalize()
	mk := func(name string, proto platform.Protocol, topo platform.Topology, split bool) runner.Job[int64] {
		s := baseSpec(o)
		s.Protocol, s.Topology, s.Memory = proto, topo, platform.LMIDDR
		s.SplitLMIBridge = split
		return cycleJob(name, s, o)
	}
	jobs := []runner.Job[int64]{
		mk("distributed STBus", platform.STBus, platform.Distributed, false),
		mk("collapsed STBus", platform.STBus, platform.Collapsed, false),
		mk("collapsed AXI", platform.AXI, platform.Collapsed, false),
		mk("distributed AXI", platform.AXI, platform.Distributed, false),
		mk("full AHB", platform.AHB, platform.Distributed, false),
	}
	cycles, err := runner.Values(runner.Map(jobs, o.pool("fig5")))
	if err != nil {
		return Series{}, err
	}
	entries := []Entry{
		{Name: "distributed STBus", Cycles: cycles[0], Note: "LMI native, GenConv bridges"},
		{Name: "collapsed STBus", Cycles: cycles[1], Note: "no bridge at LMI"},
		{Name: "collapsed AXI", Cycles: cycles[2], Note: "non-split LMI converter"},
		{Name: "distributed AXI", Cycles: cycles[3], Note: "lightweight bridges"},
		{Name: "full AHB", Cycles: cycles[4], Note: "non-split blocking bridges"},
	}
	normalizeEntries(entries)
	return Series{
		Title: "Fig.5 — platform instances with LMI memory controller + DDR",
		Caption: "Expected shape: collapsed STBus approaches distributed STBus; collapsed AXI\n" +
			"much worse (no split at the LMI); the STBus-AHB gap grows vs Fig.3.",
		Entries: entries,
	}, nil
}

// Fig6Report is the fine-grain LMI interface analysis.
type Fig6Report struct {
	// PhaseA and PhaseB summarize the two working regimes of the full
	// STBus platform (intense, then bursty).
	PhaseA, PhaseB lmi.WindowReport
	// AHB summarizes the full-AHB rerun over the whole lifetime.
	AHBFull      float64
	AHBNoRequest float64
	// Windows carries the raw per-window series of the STBus run.
	Windows []lmi.WindowReport
}

// Fig6 reproduces the paper's Fig.6: statistics taken at the bus interface
// of the LMI controller for the full STBus platform under a two-phase
// workload, plus the full-AHB rerun. The STBus run and the AHB rerun are
// independent and execute concurrently.
func Fig6(o Options) (Fig6Report, error) {
	o.normalize()
	s := baseSpec(o)
	s.Protocol, s.Topology, s.Memory = platform.STBus, platform.Distributed, platform.LMIDDR
	s.TwoPhase = true
	s.LMI.PhaseWindow = 2000

	sa := s
	sa.Protocol = platform.AHB

	results, err := runner.Values(runner.Map([]runner.Job[platform.Result]{
		platformJob("stbus two-phase", s, o),
		platformJob("ahb rerun", sa, o),
	}, o.pool("fig6")))
	if err != nil {
		return Fig6Report{}, err
	}
	m := results[0].Monitor
	total := m.Cycles()
	report := Fig6Report{
		PhaseA:  m.Phase(0, total/3),
		PhaseB:  m.Phase(2*total/3, total),
		Windows: m.Windows(),
	}
	report.AHBFull = results[1].Monitor.TotalFrac(lmi.StateFull)
	report.AHBNoRequest = results[1].Monitor.TotalFrac(lmi.StateNoRequest)
	return report, nil
}

// Write renders the Fig.6 report.
func (r Fig6Report) Write(w io.Writer) error {
	fmt.Fprintln(w, "== Fig.6 — LMI bus-interface statistics, full STBus platform ==")
	fmt.Fprintln(w, "Expected shape: phase A intense (FIFO often full, rarely empty); phase B")
	fmt.Fprintln(w, "similar full fraction but empty far more often (bursty, lower intensity).")
	fmt.Fprintln(w, "Paper's reference: full 47%, no-request 29%, storing 24% in phase A.")
	fmt.Fprintln(w)
	tbl := stats.NewTable("phase", "full", "storing", "norequest", "empty")
	row := func(name string, p lmi.WindowReport) {
		tbl.AddRow(name,
			fmt.Sprintf("%.1f%%", 100*p.FullFrac),
			fmt.Sprintf("%.1f%%", 100*p.StoringFrac),
			fmt.Sprintf("%.1f%%", 100*p.NoRequestFrac),
			fmt.Sprintf("%.1f%%", 100*p.EmptyFrac))
	}
	row("A (intense)", r.PhaseA)
	row("B (bursty)", r.PhaseB)
	if err := tbl.Write(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfull AHB rerun: FIFO full %.1f%% of cycles, no incoming request %.1f%%\n",
		100*r.AHBFull, 100*r.AHBNoRequest)
	fmt.Fprintln(w, "(paper: never full, no-request 98% -> interconnect, not memory, is the bottleneck)")
	_, err := fmt.Fprintln(w)
	return err
}

// Sec411Point is one offered-load sample of the many-to-many study.
type Sec411Point struct {
	GapMean   float64
	STBus     int64
	AHB       int64
	AXI       int64
	STBusDeep int64 // STBus with deeper target buffering
}

// Sec411Result is the §4.1.1 study.
type Sec411Result struct {
	Points []Sec411Point
}

// sec41Spec builds the single-layer spec of one §4.1 run: 300 transactions
// per generator at scale 1, and never fewer than 20.
func sec41Spec(o Options, proto platform.Protocol, memories int, gap float64) platform.Spec {
	return platform.SingleLayerBench(proto, memories, max(int64(300*o.Scale), 20), gap, o.Seed)
}

// Sec411 reproduces §4.1.1: single-layer, many slaves, execution time of the
// three protocols as the offered load rises (gap shrinks), plus STBus with
// deeper target buffering closing the AXI gap. A nil/empty gaps slice
// selects the default ladder; negative gaps are rejected.
func Sec411(o Options, gaps []float64) (Sec411Result, error) {
	o.normalize()
	if len(gaps) == 0 {
		gaps = []float64{8, 4, 2, 1, 0}
	}
	// Four runs per gap, flattened into one fan-out: [gap0 STBus, gap0
	// AHB, gap0 AXI, gap0 STBus-deep, gap1 STBus, ...].
	var jobs []runner.Job[int64]
	for _, gap := range gaps {
		if gap < 0 {
			return Sec411Result{}, fmt.Errorf("sec411: negative gap mean %.1f", gap)
		}
		deep := sec41Spec(o, platform.STBus, 6, gap)
		deep.TargetRespDepth = 8
		jobs = append(jobs,
			cycleJob(fmt.Sprintf("gap%.0f/STBus", gap), sec41Spec(o, platform.STBus, 6, gap), o),
			cycleJob(fmt.Sprintf("gap%.0f/AHB", gap), sec41Spec(o, platform.AHB, 6, gap), o),
			cycleJob(fmt.Sprintf("gap%.0f/AXI", gap), sec41Spec(o, platform.AXI, 6, gap), o),
			cycleJob(fmt.Sprintf("gap%.0f/STBus-deep", gap), deep, o),
		)
	}
	cycles, err := runner.Values(runner.Map(jobs, o.pool("sec411")))
	if err != nil {
		return Sec411Result{}, err
	}
	var out Sec411Result
	for i, gap := range gaps {
		out.Points = append(out.Points, Sec411Point{
			GapMean:   gap,
			STBus:     cycles[4*i],
			AHB:       cycles[4*i+1],
			AXI:       cycles[4*i+2],
			STBusDeep: cycles[4*i+3],
		})
	}
	return out, nil
}

// Write renders the study.
func (r Sec411Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "== §4.1.1 — single layer, many-to-many traffic (6 masters x 6 slaves) ==")
	fmt.Fprintln(w, "Expected shape: STBus and AXI track each other and exploit slave")
	fmt.Fprintln(w, "parallelism; AHB serializes and falls behind as load rises; deeper STBus")
	fmt.Fprintln(w, "target buffering closes any residual gap to AXI.")
	fmt.Fprintln(w)
	tbl := stats.NewTable("gap", "STBus", "AHB", "AXI", "STBus(deep buf)")
	for _, p := range r.Points {
		tbl.AddRow(fmt.Sprintf("%.0f", p.GapMean), fmt.Sprint(p.STBus),
			fmt.Sprint(p.AHB), fmt.Sprint(p.AXI), fmt.Sprint(p.STBusDeep))
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Sec412 reproduces §4.1.2: single-layer, single slave (many-to-one): all
// protocols reach the 50%-efficiency bound set by the 1-wait-state memory.
func Sec412(o Options) (Series, error) {
	o.normalize()
	mk := func(name string, proto platform.Protocol) runner.Job[int64] {
		return cycleJob(name, sec41Spec(o, proto, 1, 2), o)
	}
	cycles, err := runner.Values(runner.Map([]runner.Job[int64]{
		mk("STBus", platform.STBus),
		mk("AHB", platform.AHB),
		mk("AXI", platform.AXI),
	}, o.pool("sec412")))
	if err != nil {
		return Series{}, err
	}
	entries := []Entry{
		{Name: "STBus", Cycles: cycles[0]},
		{Name: "AHB", Cycles: cycles[1], Note: "best operating condition for AHB"},
		{Name: "AXI", Cycles: cycles[2]},
	}
	normalizeEntries(entries)
	return Series{
		Title: "§4.1.2 — single layer, many-to-one traffic (6 masters x 1 slave)",
		Caption: "Expected shape: no significant differences — the 1-ws memory bounds the\n" +
			"response channel to 50% efficiency and every protocol hides the handover.",
		Entries: entries,
	}, nil
}
