package platform

// Sharded parallel execution (DESIGN.md §15).
//
// A sharded run partitions the platform's clock domains into per-shard
// mini-kernels stepped on parallel goroutines and synchronized at
// central-clock-period windows. The partition granule is a *unit*: one clock
// domain plus the components it registered on the central clock (journaled by
// regCentral during Build). Cross-shard communication flows exclusively
// through the bridges' initiator-port bus FIFOs, switched into deferred-commit
// mode (sim.Fifo.MarkDeferred): both endpoints act only at central-clock
// edges, a window contains exactly one central edge, and the window
// coordinator performs the commit single-threaded at the barrier — so every
// shard observes exactly the committed state a serial run would show it, and
// results are bit-identical to serial execution.

import (
	"fmt"
	"sort"

	"mpsocsim/internal/sim"
)

// centralUnit is the unit owning the central interconnect, memory subsystem
// and everything else journaled under it; it is pinned to shard 0.
const centralUnit = "central"

// EnableSharding partitions the platform into at most n shards for parallel
// execution. Call after Build (and after EnableTimelines/EnableAttribution,
// when used) but before Run. n is clamped to the number of partitionable
// units — the central domain plus one unit per additional clock domain — so
// a collapsed single-clock topology degenerates to serial execution no matter
// how many shards are requested. n == 1 (or an effective count of 1) leaves
// the platform in serial mode; the serial kernel *is* the one-shard case.
//
// Sharded runs produce bit-identical Results, reports, captured traces and
// attribution matrices to serial runs of the same spec; the conformance
// matrix in shard_test.go enforces this property.
func (p *Platform) EnableSharding(n int) error {
	if n < 1 {
		return fmt.Errorf("platform: shard count must be >= 1, got %d", n)
	}
	if p.sharded {
		return fmt.Errorf("platform: sharding already enabled")
	}
	if p.Kernel.Now() != p.resumedPS || p.CentralClk.Cycles() != p.resumedCycles {
		return fmt.Errorf("platform: EnableSharding must be called before the run starts")
	}
	if p.samplerAttached {
		return fmt.Errorf("platform: sharded execution is incompatible with AttachSampler (the CSV/VCD sampler reads cross-domain state from a central-clock hook)")
	}
	if got, want := p.CentralClk.NumRegistered(), len(p.centralRegs); got != want {
		return fmt.Errorf("platform: central clock has %d registrations but the journal holds %d — a component bypassed regCentral", got, want)
	}

	// Units and their weights. Every clock domain is one unit named after its
	// clock; a unit's weight is the component count it brings (its own clock's
	// registrations plus its journaled central-clock registrations).
	clocks := append([]*sim.Clock(nil), p.Kernel.Clocks()...)
	weight := map[string]int{centralUnit: 0}
	units := []string{centralUnit}
	for _, c := range clocks[1:] {
		units = append(units, c.Name())
		weight[c.Name()] += c.NumRegistered()
	}
	for _, reg := range p.centralRegs {
		if reg.unit == timelineUnit {
			continue
		}
		if _, ok := weight[reg.unit]; !ok {
			return fmt.Errorf("platform: journal references unknown unit %q", reg.unit)
		}
		weight[reg.unit]++
	}

	eff := n
	if eff > len(units) {
		eff = len(units)
	}
	p.shards = eff
	if eff == 1 {
		return nil
	}
	// Shards evaluate every component at every edge: a wake-up would have
	// to cross shards through FIFOs that deferred commit already splits.
	p.Kernel.SetFullEval(true)

	// Deterministic greedy balance: the central unit is pinned to shard 0;
	// the rest go heaviest-first (name-ascending tie-break) onto the least
	// loaded shard (lowest index tie-break).
	rest := append([]string(nil), units[1:]...)
	sort.Slice(rest, func(i, j int) bool {
		if weight[rest[i]] != weight[rest[j]] {
			return weight[rest[i]] > weight[rest[j]]
		}
		return rest[i] < rest[j]
	})
	load := make([]int, eff)
	load[0] = weight[centralUnit]
	shardOf := map[string]int{centralUnit: 0}
	for _, u := range rest {
		best := 0
		for s := 1; s < eff; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		shardOf[u] = best
		load[best] += weight[u]
	}

	// Per-shard kernels. Each non-central clock is adopted whole — its
	// components keep their *Clock pointer, cycle counts and registration
	// order. The central clock's components are stripped and re-registered
	// from the journal: the real clock (with the shard-0 components) goes to
	// shard 0, every other shard gets a same-period replica. All central
	// clocks tick the same edges in lockstep, and "central" sorts first in
	// every shard's name-ordered schedule, so each component sees exactly the
	// serial firing order restricted to its shard.
	kernels := make([]*sim.Kernel, eff)
	for i := range kernels {
		kernels[i] = sim.NewKernel()
		kernels[i].SetFullEval(true)
	}
	if comps := p.CentralClk.TakeComponents(); len(comps) != len(p.centralRegs) {
		panic("platform: central journal out of sync") // unreachable: checked above
	}
	central := make([]*sim.Clock, eff)
	central[0] = p.CentralClk
	kernels[0].AdoptClock(p.CentralClk)
	for i := 1; i < eff; i++ {
		central[i] = kernels[i].NewClockPeriodPS("central", p.CentralClk.PeriodPS())
		// On a checkpoint-restored platform the real central clock is
		// mid-run; replicas must agree on the completed-cycle count so all
		// central domains keep ticking in lockstep.
		central[i].SeedCycles(p.CentralClk.Cycles())
	}
	for _, c := range clocks[1:] {
		kernels[shardOf[c.Name()]].AdoptClock(c)
	}
	for _, reg := range p.centralRegs {
		if reg.unit == timelineUnit {
			continue
		}
		central[shardOf[reg.unit]].Register(reg.comp)
	}

	// Timeline sampling: replace the single cross-domain trigger with one per
	// shard, each sampling only its home domains' gauges on its own `left`
	// countdown. The countdowns run in lockstep (every central clock ticks
	// every edge), so the sampling instants — and the sampled values, read
	// from shard-local components — are exactly the serial ones. Registered
	// last on each shard's central clock, like the serial trigger.
	if p.timelineTrigger != nil {
		shardOfClock := func(c *sim.Clock) int {
			if c == p.CentralClk {
				return 0
			}
			return shardOf[c.Name()]
		}
		for s := 0; s < eff; s++ {
			var idxs []int
			for j, c := range p.samplerClocks {
				if shardOfClock(c) == s {
					idxs = append(idxs, j)
				}
			}
			if len(idxs) == 0 {
				continue
			}
			every := p.timelineEvery
			// Seed each shard's countdown from the live serial countdown:
			// p.timelineLeft is `every` for a fresh platform and the
			// restored mid-window value after a checkpoint restore. All
			// central clocks tick in lockstep, so the per-shard countdowns
			// stay synchronized from that common seed.
			left := p.timelineLeft
			central[s].Register(&sim.ClockedFunc{OnEval: func() {
				left--
				if left > 0 {
					return
				}
				left = every
				for _, j := range idxs {
					p.samplers[j].Sample(p.samplerClocks[j].Cycles())
				}
			}})
		}
	}

	// Shard cuts. Every bridge whose initiator side landed outside shard 0 is
	// re-pointed at its shard's central replica (so all clocks it reads are
	// shard-local) and its initiator-port FIFOs — the only state both sides of
	// the cut touch — switch to deferred commit. The window coordinator
	// commits them at each barrier, once per central cycle, as the serial
	// bridge Update would.
	names := make([]string, 0, len(p.bridges))
	for name := range p.bridges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		br := p.bridges[name]
		unit := ""
		for _, reg := range p.centralRegs {
			if reg.comp == br.InitiatorSide {
				unit = reg.unit
				break
			}
		}
		if unit == "" {
			return fmt.Errorf("platform: bridge %q initiator side not found in the central journal", name)
		}
		if shardOf[unit] == 0 {
			continue
		}
		br.RehomeDestination(central[shardOf[unit]])
		ip := br.InitiatorPort()
		ip.Req.MarkDeferred()
		ip.Resp.MarkDeferred()
		p.boundaryFifos = append(p.boundaryFifos, ip.Req, ip.Resp)
	}

	// Shared services crossed by transaction lifecycles: the request pool
	// (mutex-guarded; pointer identity is unobservable in results) and the
	// attribution collector (mutex on Start/Finish; slot-keyed commutative
	// folds keep the matrices bit-identical — see attr.Collector).
	p.pool.SetShared(true)
	if p.attrCol != nil {
		p.attrCol.SetShared(true)
	}

	// tailThreshold bounds how many uncompleted transactions guarantee that a
	// whole window cannot drain the workload: per window each initiator
	// completes at most its in-flight cap plus the issues of that window
	// (every initiator clock period is >= the central period in this
	// platform, so at most one issue — +4 is headroom for faster clocks).
	thr := int64(1)
	for _, g := range p.gens {
		thr += g.MaxConcurrent() + 4
	}
	p.tailThreshold = thr

	p.shardKernels = kernels
	p.shardCentral = central
	p.sharded = true
	return nil
}

// Shards returns the effective shard count (1 until EnableSharding selects
// more).
func (p *Platform) Shards() int {
	if p.shards == 0 {
		return 1
	}
	return p.shards
}

// shardExec drives one sharded run: the parallel window loop and the serial
// per-instant tail share its state, and the zero-allocation test measures its
// window method directly.
type shardExec struct {
	p      *Platform
	runner *sim.ShardRunner
	period int64
	next   int64 // next central edge: the next barrier/commit instant
	now    int64 // last executed global instant
}

func (p *Platform) newShardExec() *shardExec {
	return &shardExec{
		p:      p,
		runner: sim.NewShardRunner(p.shardKernels),
		period: p.CentralClk.PeriodPS(),
		// The first barrier is the next central edge — period for a fresh
		// platform, mid-run for a checkpoint-restored one.
		next: p.CentralClk.NowPS(),
	}
}

// window runs one synchronization window in parallel — all edges up to and
// including the next central edge — then commits the boundary FIFOs at the
// barrier. Allocation-free in steady state.
func (e *shardExec) window() {
	e.runner.RunWindow(e.next)
	for _, f := range e.p.boundaryFifos {
		f.CommitDeferred()
	}
	e.now = e.next
	e.next += e.period
}

// step executes the single earliest global instant across all shards on the
// caller's goroutine, committing boundary FIFOs whenever the instant is a
// central edge. The serial tail uses it to reproduce a serial run's exact
// per-instant stop conditions. It returns false when no shard has clocks.
func (e *shardExec) step() bool {
	t := e.runner.PeekNextEdge()
	if t < 0 {
		return false
	}
	e.runner.StepAll(t)
	// Central edges are due every period in every shard, so the global
	// minimum instant can never jump past one: t == e.next exactly at
	// central edges.
	if t == e.next {
		for _, f := range e.p.boundaryFifos {
			f.CommitDeferred()
		}
		e.next += e.period
	}
	e.now = t
	return true
}

// runSharded is Run for a sharded platform. The loop runs whole parallel
// windows while (a) the workload provably cannot drain within one window
// (tail threshold — completion counts could otherwise diverge from the serial
// stop instant) and (b) the next barrier stays inside the time budget; it
// then finishes on a serial per-instant tail that reproduces the serial
// run's exact stop instant, budget-overshoot-by-one-instant semantics and
// stall-watchdog observation points.
func (p *Platform) runSharded(maxPS int64) Result {
	ex := p.newShardExec()
	defer ex.runner.Close()

	pending := func() bool {
		for _, g := range p.gens {
			if !g.Done() {
				return true
			}
		}
		return false
	}
	progress := func() int64 {
		var n int64
		for _, g := range p.gens {
			n += g.Issued() + g.Completed()
		}
		return n
	}
	unfinished := func() int64 {
		var n int64
		for _, g := range p.gens {
			n += g.Unfinished()
		}
		return n
	}

	// Identical watchdog to the serial Run, sharing the same Platform-field
	// history (so a restored sharded run observes progress at the instants
	// the uninterrupted serial run would). Its observation points — the
	// first instants where the central cycle count crosses a 200k-cycle
	// milestone — are central edges, i.e. exactly the window barriers, so
	// the sharded watchdog samples progress at the same instants with the
	// same values as the serial one.
	done := true
	stalled := false

	for pending() && unfinished() > p.tailThreshold && ex.next < maxPS {
		ex.window()
		p.pollTelemetry()
		if c := p.CentralClk.Cycles(); c-p.wdLastCheck >= stallWindow {
			if prog := progress(); prog == p.wdLastProg {
				done = false
				stalled = true
				break
			} else {
				p.wdLastProg = prog
				p.observeWatchdogCounters()
			}
			p.wdLastCheck = c
		}
	}

	if !stalled {
		for pending() {
			if ex.now >= maxPS {
				done = false
				break
			}
			if !ex.step() {
				done = false
				break
			}
			p.pollTelemetry()
			if c := p.CentralClk.Cycles(); c-p.wdLastCheck >= stallWindow {
				if prog := progress(); prog == p.wdLastProg {
					done = false
					stalled = true
					break
				} else {
					p.wdLastProg = prog
					p.observeWatchdogCounters()
				}
				p.wdLastCheck = c
			}
		}
	}

	// The platform kernel itself never stepped (its clocks moved to the
	// shard kernels); stamp the final instant back so collect() reads the
	// same ExecPS a serial run would report.
	p.Kernel.SetNow(ex.now)
	p.finishTelemetry()
	r := p.collect(done)
	r.Stalled = stalled
	return r
}
