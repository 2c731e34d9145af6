package platform

import (
	"sort"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/telemetry"
)

// DefaultTelemetryEvery is the snapshot cadence (central cycles) when the
// caller passes <= 0: ~4 us of simulated time at 250 MHz, a few thousand
// records for a typical run.
const DefaultTelemetryEvery = 1024

// EnableTelemetry attaches a live telemetry collector: every `every` central
// cycles the run loop snapshots the metrics registry and per-initiator
// counts into the collector's preallocated ring (DefaultTelemetryEvery when
// every <= 0, telemetry.DefaultRingCap rows when ringCap <= 0). Snapshots
// are taken at safe boundaries only — after a fully committed central-clock
// instant — so two runs of the same spec stream identical records. Call after
// Build (or Restore: collectors are not part of a checkpoint) and before
// Run; idempotent, returning the existing collector on a second call.
func (p *Platform) EnableTelemetry(every int64, ringCap int) *telemetry.Collector {
	if p.tele != nil {
		return p.tele
	}
	if every <= 0 {
		every = DefaultTelemetryEvery
	}
	srcs := make([]telemetry.InitiatorSource, len(p.gens))
	for i, g := range p.gens {
		srcs[i] = g
	}
	p.tele = telemetry.NewCollector(p.Metrics, srcs, ringCap)
	p.teleEvery = every
	// First snapshot at the next cadence multiple strictly ahead of the
	// current cycle, so a restored run snapshots at exactly the instants
	// the uninterrupted run would.
	p.teleNext = (p.CentralClk.Cycles()/every + 1) * every
	p.teleLastCycle = -1
	return p.tele
}

// Telemetry returns the attached collector, nil until EnableTelemetry.
func (p *Platform) Telemetry() *telemetry.Collector { return p.tele }

// pollTelemetry is the run loops' per-step snapshot check. One nil check
// when telemetry is off, one compare when on; allocation-free either way
// (Collect writes into preallocated ring rows). The snapshot instant is the
// central edge of cycle teleNext, whose absolute time is exactly
// cycle*period.
func (p *Platform) pollTelemetry() {
	if p.tele == nil {
		return
	}
	if c := p.CentralClk.Cycles(); c >= p.teleNext {
		p.teleLastCycle = c
		p.teleNext += p.teleEvery
		p.Kernel.Settle()
		p.tele.Collect(c, c*p.CentralClk.PeriodPS())
	}
}

// finishTelemetry emits the final snapshot (the run's end state, at the last
// stepped instant — collected only if the cadence did not already sample
// this cycle) and marks the collector done. Called by Run once the run loop
// exits.
func (p *Platform) finishTelemetry() {
	if p.tele == nil {
		return
	}
	if c := p.CentralClk.Cycles(); c != p.teleLastCycle {
		p.teleLastCycle = c
		p.Kernel.Settle()
		p.tele.Collect(c, p.Kernel.Now())
	}
	p.tele.Finish()
}

// observeWatchdogCounters copies every registry counter into the
// preallocated watchdog baseline, demoting the old baseline to the previous
// slot first. The run loops call it at each watchdog observation that saw
// progress, so a stall report can show exactly which counters still moved
// during the final (wedged) window. Allocation-free (the two buffers swap).
func (p *Platform) observeWatchdogCounters() {
	p.Kernel.Settle()
	p.wdCounters, p.wdPrevCounters = p.wdPrevCounters, p.wdCounters
	for i, c := range p.Metrics.Counters() {
		p.wdCounters[i] = metrics.CounterValue{Name: c.Name(), Value: c.Value()}
	}
	p.wdObservations++
	p.wdObservedCycle = p.CentralClk.Cycles()
}

// fifoState is the occupancy surface shared by request and beat queues.
type fifoState interface {
	Name() string
	Len() int
	Depth() int
}

func appendFifo(rows []telemetry.FifoFill, f fifoState) []telemetry.FifoFill {
	d := f.Depth()
	if d <= 0 {
		return rows
	}
	l := f.Len()
	return append(rows, telemetry.FifoFill{Name: f.Name(), Len: l, Depth: d, Fill: float64(l) / float64(d)})
}

func appendInitiatorPort(rows []telemetry.FifoFill, p *bus.InitiatorPort) []telemetry.FifoFill {
	return appendFifo(appendFifo(rows, p.Req), p.Resp)
}

func appendTargetPort(rows []telemetry.FifoFill, p *bus.TargetPort) []telemetry.FifoFill {
	return appendFifo(appendFifo(rows, p.Req), p.Resp)
}

// StallReport assembles the run-health forensics dump: the topFifos fullest
// FIFOs across every port of the platform (10 when <= 0), each initiator's
// oldest outstanding transaction, each clock domain's last-progress cycle
// and the counters that moved during the last watchdog window. Valid after
// Run returns with Stalled (watchdog fired, exit 2) or over budget (exit 3),
// or between any two steps; works whether or not telemetry streaming was
// enabled. The initiator and domain rows read each traffic source's
// iptg.Issuer, and the counter rows the watchdog baselines, all of which
// travel in snapshots: a restored platform reports what the uninterrupted
// run would at the same cycle.
func (p *Platform) StallReport(reason string, topFifos int) *telemetry.StallReport {
	if topFifos <= 0 {
		topFifos = 10
	}
	p.Kernel.Settle()
	rep := &telemetry.StallReport{
		Reason: reason,
		Cycle:  p.CentralClk.Cycles(),
		TimePS: p.Kernel.Now(),
	}

	var fifos []telemetry.FifoFill
	for _, g := range p.gens {
		fifos = appendInitiatorPort(fifos, g.Port())
	}
	names := make([]string, 0, len(p.bridges))
	for name := range p.bridges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		br := p.bridges[name]
		fifos = appendTargetPort(fifos, br.TargetPort())
		fifos = appendInitiatorPort(fifos, br.InitiatorPort())
	}
	for _, m := range p.onchip {
		fifos = appendTargetPort(fifos, m.Port())
	}
	if p.ctrl != nil {
		fifos = appendTargetPort(fifos, p.ctrl.Port())
	}
	if p.core != nil {
		fifos = appendInitiatorPort(fifos, p.core.Port())
	}
	rep.Fifos = telemetry.SortFifos(fifos, topFifos)

	for i, g := range p.gens {
		rep.Issued += g.Issued()
		rep.Completed += g.Completed()
		row := telemetry.InitiatorHealth{
			Name:              g.Name(),
			Clock:             p.genClk[i].Name(),
			Issued:            g.Issued(),
			Completed:         g.Completed(),
			InFlight:          g.InFlight(),
			LastIssueCycle:    g.LastIssueCycle(),
			LastCompleteCycle: g.LastCompleteCycle(),
		}
		if id, cycle, ok := g.Oldest(); ok {
			// The request was stamped at the edge after its issue cycle
			// (sim.Clock.NowPS).
			row.OldestID = id
			row.OldestAgePS = rep.TimePS - (cycle+1)*p.genClk[i].PeriodPS()
		}
		rep.Initiators = append(rep.Initiators, row)
	}

	// Per-clock-domain last progress: the central clock, each initiator
	// clock in first-use order, then the CPU clock.
	clocks := []*sim.Clock{p.CentralClk}
	seen := map[*sim.Clock]bool{p.CentralClk: true}
	for _, clk := range p.genClk {
		if !seen[clk] {
			seen[clk] = true
			clocks = append(clocks, clk)
		}
	}
	if p.CPUClk != nil && !seen[p.CPUClk] {
		clocks = append(clocks, p.CPUClk)
	}
	for _, clk := range clocks {
		d := telemetry.DomainHealth{Clock: clk.Name(), Cycles: clk.Cycles(), LastProgressCycle: -1}
		for i, g := range p.gens {
			if p.genClk[i] != clk {
				continue
			}
			d.LastProgressCycle = max(d.LastProgressCycle, g.LastIssueCycle(), g.LastCompleteCycle())
		}
		rep.Domains = append(rep.Domains, d)
	}

	if p.wdObservations > 0 {
		rep.Observed = true
		// A run that ends on the exact cycle of a baseline refresh (whole-ms
		// budgets are often watchdog-window multiples) would diff a zero-
		// width window; use the previous baseline so the report still covers
		// one full window of movement.
		base := p.wdCounters
		if p.wdObservedCycle == rep.Cycle && p.wdObservations > 1 {
			base = p.wdPrevCounters
		}
		cur := make([]metrics.CounterValue, len(base))
		for i, c := range p.Metrics.Counters() {
			cur[i] = metrics.CounterValue{Name: c.Name(), Value: c.Value()}
		}
		rep.Moved = metrics.DiffCounters(cur, base)
	}
	return rep
}
