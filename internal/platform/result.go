package platform

import (
	"fmt"
	"io"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/bridge"
	mpio "mpsocsim/internal/io"
	"mpsocsim/internal/iptg"
	"mpsocsim/internal/lmi"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/stats"
)

// Result summarizes one platform run.
type Result struct {
	Spec Spec
	// Done is false when the run hit the time budget before the workload
	// drained.
	Done bool
	// Stalled marks a run aborted by the progress watchdog: no
	// transaction was issued or completed for a long window, i.e. the
	// configuration deadlocked rather than ran out of budget.
	Stalled bool
	// ExecPS is the execution time in picoseconds; CentralCycles the
	// same expressed in central-node cycles.
	ExecPS        int64
	CentralCycles int64
	// ResumedFromCycle is the central-clock cycle the platform was restored
	// at (0 for a run started from a fresh Build). All cumulative figures —
	// cycles, transactions, histograms — still cover the whole run from
	// cycle 0: a restored run carries the prefix's state with it.
	ResumedFromCycle int64

	Issued    int64
	Completed int64
	// TotalBytes is the payload moved by the traffic generators.
	TotalBytes int64

	// IPs holds per-generator agent statistics keyed by IP name.
	IPs map[string][]iptg.AgentStats
	// Bridges holds per-bridge statistics.
	Bridges map[string]bridge.Stats
	// MemUtilization is the busy fraction of the memory subsystem (the
	// mean over the on-chip memories).
	MemUtilization float64
	// LMI carries the controller statistics (zero value for on-chip).
	LMI lmi.Stats
	// Monitor is the Fig.6 bus-interface monitor (nil for on-chip).
	Monitor *lmi.Monitor
	// DSP carries core statistics when the DSP is present.
	DSP struct {
		Present bool
		Cycles  int64
		CPI     float64
	}
	// Deadlines holds one row per deadline-tracked I/O agent (empty unless
	// the spec enables the I/O subsystem): events raised/serviced, deadline
	// met/miss counts and the service-latency shape.
	Deadlines []mpio.DeadlineStats
	// Metrics is the point-in-time snapshot of every registered instrument,
	// taken when the run finished. The JSON report renders from it; it
	// stays valid after the platform is gone.
	Metrics *metrics.Snapshot
	// Attribution is the per-initiator × per-phase latency breakdown (nil
	// unless EnableAttribution was called before the run).
	Attribution *attr.Snapshot
}

// Run executes the platform until the workload drains, maxPS of simulated
// time elapses, or the progress watchdog detects a stall (no transaction
// issued or completed over a long window — a deadlocked configuration).
func (p *Platform) Run(maxPS int64) Result {
	if p.tele != nil {
		p.tele.SetBudgetPS(maxPS)
	}
	drained, stalled, _ := p.run(maxPS, -1)
	p.finishTelemetry()
	r := p.collect(drained)
	r.Stalled = stalled
	return r
}

// stallWindow is the progress watchdog's observation window in central
// cycles. It is generous: the slowest legitimate configurations move at
// least one transaction every few thousand central cycles.
const stallWindow = 200_000

// run is the platform's one run loop, shared by Run and RunToCycle. It steps
// the kernel until the workload drains (completion is defined by the IP
// traffic draining; the DSP is background interference and never gates the
// run), maxPS elapses, the watchdog detects a stall, or — when stopAtCycle
// is >= 0 — the central clock completes stopAtCycle cycles (the checkpoint
// instant; paused reports that exit). The watchdog history lives in Platform
// fields, so a run split across checkpoint/restore observes progress at
// exactly the instants an uninterrupted run would.
func (p *Platform) run(maxPS, stopAtCycle int64) (drained, stalled, paused bool) {
	progress := func() int64 {
		var n int64
		for _, g := range p.gens {
			n += g.Issued() + g.Completed()
		}
		return n
	}
	// first indexes the first initiator not yet Done: Done never reverts
	// for any traffic source, so each edge asks only that one.
	first := 0
	for {
		for first < len(p.gens) && p.gens[first].Done() {
			first++
		}
		if first == len(p.gens) {
			return true, false, false
		}
		if stopAtCycle >= 0 && p.CentralClk.Cycles() >= stopAtCycle {
			return false, false, true
		}
		if p.Kernel.Now() >= maxPS {
			return false, false, false
		}
		// Advance ticks the edge groups in which every component sleeps
		// without returning: none of them can finish an initiator or
		// move the central clock, the only state these checks read.
		if !p.Kernel.Advance(p.CentralClk, maxPS) {
			return false, false, false
		}
		p.pollTelemetry()
		if c := p.CentralClk.Cycles(); c-p.wdLastCheck >= stallWindow {
			prog := progress()
			if prog == p.wdLastProg {
				return false, true, false
			}
			p.wdLastProg = prog
			p.wdLastCheck = c
			p.observeWatchdogCounters()
		}
	}
}

// RunToCycle steps the platform until the central clock completes at
// least `cycle` cycles, pausing at the first edge boundary past it — the
// quiescent instant to call Snapshot at. It returns true when the run paused
// with work remaining; false means the workload drained, the budget ran out
// or the watchdog fired before the checkpoint instant (finish with Run).
func (p *Platform) RunToCycle(cycle, maxPS int64) bool {
	_, _, paused := p.run(maxPS, cycle)
	return paused
}

func (p *Platform) collect(done bool) Result {
	p.Kernel.Settle()
	r := Result{
		Spec:             p.Spec,
		Done:             done,
		ExecPS:           p.Kernel.Now(),
		CentralCycles:    p.CentralClk.Cycles(),
		ResumedFromCycle: p.resumedCycles,
		IPs:              map[string][]iptg.AgentStats{},
		Bridges:          map[string]bridge.Stats{},
	}
	for _, g := range p.gens {
		as := g.Stats()
		r.IPs[g.Name()] = as
		r.Issued += g.Issued()
		r.Completed += g.Completed()
		for _, a := range as {
			r.TotalBytes += a.Bytes
		}
	}
	for _, g := range p.gens {
		if dt, ok := g.(mpio.DeadlineTracker); ok {
			r.Deadlines = append(r.Deadlines, dt.DeadlineStats())
		}
	}
	for name, br := range p.bridges {
		r.Bridges[name] = br.Stats()
	}
	if len(p.onchip) > 0 {
		for _, m := range p.onchip {
			r.MemUtilization += m.Stats().Utilization()
		}
		r.MemUtilization /= float64(len(p.onchip))
	}
	if p.ctrl != nil {
		r.LMI = p.ctrl.Stats()
		r.MemUtilization = r.LMI.Utilization()
		r.Monitor = p.ctrl.Monitor()
	}
	if p.core != nil {
		cs := p.core.Stats()
		r.DSP.Present = true
		r.DSP.Cycles = cs.Cycles
		r.DSP.CPI = cs.CPI()
	}
	if p.Metrics != nil {
		r.Metrics = p.Metrics.Snapshot()
	}
	if p.attrCol != nil {
		r.Attribution = p.attrCol.Snapshot()
	}
	return r
}

// ExecMS returns the execution time in milliseconds.
func (r Result) ExecMS() float64 { return float64(r.ExecPS) / 1e9 }

// ThroughputMBps returns generator payload throughput in MB/s of simulated
// time.
func (r Result) ThroughputMBps() float64 {
	if r.ExecPS == 0 {
		return 0
	}
	return float64(r.TotalBytes) / (float64(r.ExecPS) / 1e12) / 1e6
}

// WriteSummary renders a human-readable run report.
func (r Result) WriteSummary(w io.Writer) error {
	fmt.Fprintf(w, "platform   : %s\n", r.Spec.Name())
	fmt.Fprintf(w, "done       : %v\n", r.Done)
	fmt.Fprintf(w, "exec time  : %.3f ms (%d central cycles)\n", r.ExecMS(), r.CentralCycles)
	fmt.Fprintf(w, "transactions: issued=%d completed=%d\n", r.Issued, r.Completed)
	fmt.Fprintf(w, "payload    : %.2f MB, %.1f MB/s\n", float64(r.TotalBytes)/1e6, r.ThroughputMBps())
	fmt.Fprintf(w, "memory util: %.1f%%\n", 100*r.MemUtilization)
	if m := r.Monitor; m != nil {
		fmt.Fprintf(w, "lmi fifo   : full=%.1f%% storing=%.1f%% norequest=%.1f%% empty=%.1f%%\n",
			100*m.TotalFrac(lmi.StateFull), 100*m.TotalFrac(lmi.StateStoring),
			100*m.TotalFrac(lmi.StateNoRequest), 100*m.EmptyFrac())
	}
	if r.DSP.Present {
		fmt.Fprintf(w, "dsp        : %d cycles, CPI %.2f\n", r.DSP.Cycles, r.DSP.CPI)
	}
	tbl := stats.NewTable("ip", "agent", "issued", "completed", "bytes", "mean_lat", "p90_lat", "max_lat")
	for _, name := range stats.SortedKeys(r.IPs) {
		for _, a := range r.IPs[name] {
			tbl.AddRow(name, a.Name,
				fmt.Sprint(a.Issued), fmt.Sprint(a.Completed), fmt.Sprint(a.Bytes),
				fmt.Sprintf("%.1f", a.MeanLatency), fmt.Sprint(a.P90Latency), fmt.Sprint(a.MaxLatency))
		}
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	if len(r.Deadlines) > 0 {
		fmt.Fprintln(w)
		dtbl := stats.NewTable("device", "deadline", "raised", "serviced", "met", "missed", "mean_svc", "p90_svc", "max_svc")
		for _, ds := range r.Deadlines {
			dtbl.AddRow(ds.Device, fmt.Sprint(ds.DeadlineCycles),
				fmt.Sprint(ds.Raised), fmt.Sprint(ds.Serviced),
				fmt.Sprint(ds.Met), fmt.Sprint(ds.Missed),
				fmt.Sprintf("%.1f", ds.MeanSvcCycles), fmt.Sprint(ds.P90SvcCycles), fmt.Sprint(ds.MaxSvcCycles))
		}
		if err := dtbl.Write(w); err != nil {
			return err
		}
	}
	if len(r.Bridges) == 0 {
		return nil
	}
	fmt.Fprintln(w)
	btbl := stats.NewTable("bridge", "accepted", "blocked_cycles", "mean_res", "p90_res", "max_res")
	for _, name := range stats.SortedKeys(r.Bridges) {
		b := r.Bridges[name]
		btbl.AddRow(name, fmt.Sprint(b.Accepted), fmt.Sprint(b.BlockedCycles),
			fmt.Sprintf("%.1f", b.MeanResidency), fmt.Sprint(b.P90Residency), fmt.Sprint(b.MaxResidency))
	}
	return btbl.Write(w)
}
