package main

import (
	"sort"
	"strings"
	"time"

	"mpsocsim/internal/metrics"
)

// jobStats is what one successful job measured and simulated.
type jobStats struct {
	wall, setup, build, run, report time.Duration
	// inCalls is the time inside any timed call; the rest of the job's wall
	// time is the harness's own.
	inCalls            time.Duration
	allocBytes, allocs uint64

	cycles, completed         int64
	lmiBusy, lmiCycles        int64
	rowHits, rowMisses        int64
	grantStall, bridgeBlocked int64
	dspInstrs                 int64
	dcacheHits, dcacheMisses  int64
	irqServiced, irqMissed    int64
	traceBytes, capturedTxns  int64

	// ref indexes the reference run just before the job in runResult.refs.
	ref int
	// scale turns the job's host seconds into seconds at reference speed.
	scale float64
}

// at returns d in seconds at reference speed.
func (s jobStats) at(d time.Duration) float64 { return d.Seconds() * s.scale }

// statsOf derives a finished job's numbers from its calls and runs.
func statsOf(j *job) jobStats {
	s := jobStats{wall: j.end.Sub(j.start), traceBytes: j.traceBytes}
	for _, c := range j.calls {
		d := c.end.Sub(c.start)
		s.inCalls += d
		if setupCalls[c.name] {
			s.setup += d
		}
		switch c.name {
		case callBuild:
			s.build += d
		case callRun:
			s.run += d
		case callReport:
			s.report += d
		}
	}
	for _, r := range j.runs {
		res := r.res
		s.cycles += res.CentralCycles
		s.completed += res.Completed
		if r.tag == tagCapture {
			s.capturedTxns += res.Completed
		}
		for _, d := range res.Deadlines {
			s.irqServiced += d.Serviced
			s.irqMissed += d.Missed
		}
		m := res.Metrics
		s.lmiBusy += sumCounters(m, "lmi.", ".busy_cycles")
		s.lmiCycles += sumCounters(m, "lmi.", ".cycles")
		s.rowHits += sumCounters(m, "lmi.", ".sdram_row_hits")
		s.rowMisses += sumCounters(m, "lmi.", ".sdram_row_misses")
		s.grantStall += sumCounters(m, "stbus.", ".grant_stall_cycles")
		s.bridgeBlocked += sumCounters(m, "bridge.", ".blocked_cycles")
		s.dspInstrs += sumCounters(m, "dsp.", ".instrs")
		s.dcacheHits += sumCounters(m, "dsp.", ".dcache_hits")
		s.dcacheMisses += sumCounters(m, "dsp.", ".dcache_misses")
	}
	return s
}

// sumCounters adds up every counter whose name has the given prefix and
// suffix, such as every STBus node's grant stall cycles.
func sumCounters(m *metrics.Snapshot, prefix, suffix string) int64 {
	if m == nil {
		return 0
	}
	var n int64
	for _, c := range m.Counters {
		if strings.HasPrefix(c.Name, prefix) && strings.HasSuffix(c.Name, suffix) {
			n += c.Value
		}
	}
	return n
}

// metric is one number the benchmark reports; of gives its value in one job
// and summarize reduces those values to the reported number. Every time is
// in seconds at reference speed.
type metric struct {
	name, unit, better string
	// exact marks a simulated count. It is the same in every job, and a
	// change that is only about speed must leave it identical.
	exact bool
	// best metrics report the best job instead of the median one.
	best bool
	of   func(s jobStats) float64
}

// endToEnd are the metrics a user running variant jobs sees, measured with
// tracing off. BENCHMARK.json lists the same names with their bounds.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower", of: func(s jobStats) float64 { return s.at(s.wall) }},
	{name: "sim_cycles_per_s", unit: "cycles/s", better: "higher", of: func(s jobStats) float64 {
		return float64(s.cycles) / s.at(s.run)
	}},
	{name: "setup_s", unit: "s", better: "lower", of: func(s jobStats) float64 { return s.at(s.setup) }},
	// Some jobs allocate about 33 or 66 kB more than the rest, from one run to
	// the next in any workload, so the median job flips between those levels;
	// the best job is the allocation the job itself needs.
	{name: "alloc_mb", unit: "MB", better: "lower", best: true, of: func(s jobStats) float64 { return float64(s.allocBytes) / 1e6 }},
	{name: "allocs_per_job", unit: "count", better: "lower", best: true, of: func(s jobStats) float64 { return float64(s.allocs) }},
}

// perLayer are the metrics of a traced run: host time in each public call,
// and the simulated counts that define the work done.
var perLayer = []metric{
	{name: "platform.build_s", unit: "s", better: "lower", of: func(s jobStats) float64 { return s.at(s.build) }},
	{name: "platform.run_s", unit: "s", better: "lower", of: func(s jobStats) float64 { return s.at(s.run) }},
	{name: "platform.report_s", unit: "s", better: "lower", of: func(s jobStats) float64 { return s.at(s.report) }},
	{name: "platform.run_ns_per_cycle", unit: "ns", better: "lower", of: func(s jobStats) float64 {
		return 1e9 * s.at(s.run) / float64(s.cycles)
	}},
	{name: "platform.run_ns_per_txn", unit: "ns", better: "lower", of: func(s jobStats) float64 {
		return 1e9 * s.at(s.run) / float64(s.completed)
	}},
	{name: "bench.self_s", unit: "s", better: "lower", of: func(s jobStats) float64 {
		return s.at(s.wall - s.inCalls)
	}},
	{name: "platform.central_cycles", unit: "count", better: "lower", exact: true, of: func(s jobStats) float64 { return float64(s.cycles) }},
	{name: "ip.completed", unit: "count", better: "higher", exact: true, of: func(s jobStats) float64 { return float64(s.completed) }},
	{name: "lmi.busy_frac", unit: "frac", better: "higher", exact: true, of: func(s jobStats) float64 { return ratio(s.lmiBusy, s.lmiCycles) }},
	{name: "lmi.row_hit_ratio", unit: "frac", better: "higher", exact: true, of: func(s jobStats) float64 {
		return ratio(s.rowHits, s.rowHits+s.rowMisses)
	}},
	{name: "stbus.grant_stall_cycles", unit: "count", better: "lower", exact: true, of: func(s jobStats) float64 { return float64(s.grantStall) }},
	{name: "bridge.blocked_cycles", unit: "count", better: "lower", exact: true, of: func(s jobStats) float64 { return float64(s.bridgeBlocked) }},
	{name: "dsp.instrs", unit: "count", better: "higher", exact: true, of: func(s jobStats) float64 { return float64(s.dspInstrs) }},
	{name: "dsp.dcache_miss_ratio", unit: "frac", better: "lower", exact: true, of: func(s jobStats) float64 {
		return ratio(s.dcacheMisses, s.dcacheHits+s.dcacheMisses)
	}},
	{name: "io.events_serviced", unit: "count", better: "higher", exact: true, of: func(s jobStats) float64 { return float64(s.irqServiced) }},
	{name: "io.deadline_misses", unit: "count", better: "lower", exact: true, of: func(s jobStats) float64 { return float64(s.irqMissed) }},
	{name: "tracecap.bytes_per_txn", unit: "B", better: "lower", exact: true, of: func(s jobStats) float64 {
		return ratio(s.traceBytes, s.capturedTxns)
	}},
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// summary is one metric's distribution over a run's measured jobs.
type summary struct {
	best, q1, median, q3 float64
	jobs                 int
	// value is what the run reports: the best job for a best metric, the
	// median job otherwise.
	value float64
}

// summarize returns the distribution of m over the jobs. Scaled to reference
// speed, a job's times vary from job to job in both directions, so times
// report the median job; the best job of a run would pick whichever job the
// reference model happened to overstate most.
func summarize(m metric, stats []jobStats) summary {
	xs := make([]float64, len(stats))
	for i, s := range stats {
		xs[i] = m.of(s)
	}
	sort.Float64s(xs)
	s := summary{q1: quantile(xs, 0.25), median: quantile(xs, 0.5), q3: quantile(xs, 0.75), jobs: len(xs)}
	switch {
	case len(xs) == 0:
	case m.better == "higher":
		s.best = xs[len(xs)-1]
	default:
		s.best = xs[0]
	}
	s.value = s.median
	if m.best {
		s.value = s.best
	}
	return s
}

// median returns the median of xs, which it sorts.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of sorted xs, 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
