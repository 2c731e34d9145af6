// Package sim provides the cycle-accurate simulation kernel underlying the
// whole virtual platform: multiple clock domains, two-phase (eval/update)
// component scheduling, synchronous and clock-domain-crossing FIFOs, and a
// deterministic PRNG.
//
// The kernel mirrors the delta-cycle discipline of a SystemC clocked design:
// on every clock edge all components registered on that clock first Eval()
// (compute, read current state, stage writes) and then Update() (commit the
// staged writes). All inter-component communication flows through Fifo or
// Reg values committed at Update, so a value written in cycle N is visible
// to readers in cycle N+1 regardless of evaluation order. Gated components
// whose next edges would only count sleep and are skipped until the other
// side of a FIFO moves, a partner pokes them or a timer runs out (see
// Activity).
package sim

import (
	"fmt"
	"math"
	"sort"
)

// Clocked is implemented by every synchronous component. Eval runs first on
// each edge of the component's clock and may read current state and stage
// writes; Update commits staged state. No component may observe another
// component's staged (pre-Update) state.
type Clocked interface {
	Eval()
	Update()
}

// ClockedFunc adapts a pair of functions to the Clocked interface.
type ClockedFunc struct {
	OnEval   func()
	OnUpdate func()
}

// Eval calls OnEval if non-nil.
func (c *ClockedFunc) Eval() {
	if c.OnEval != nil {
		c.OnEval()
	}
}

// Update calls OnUpdate if non-nil.
func (c *ClockedFunc) Update() {
	if c.OnUpdate != nil {
		c.OnUpdate()
	}
}

// Clock is a free-running clock domain. Components registered on a clock are
// ticked on every rising edge, in registration order, first all Eval then
// all Update — except gated components while they sleep (see Activity).
type Clock struct {
	name     string
	periodPS int64
	nextEdge int64
	cycle    int64
	slots    []slot
	kernel   *Kernel

	// sleepers counts the slots asleep; wakeMin is at or before the
	// earliest timed wake-up among them. While every slot sleeps and
	// wakeMin lies after an edge, the clock's sweeps at that edge are
	// skipped whole.
	sleepers int
	wakeMin  int64
	// sweepPS is the instant of the clock's latest Eval sweep and pos the
	// slot it has reached (len(slots) once done): a component woken at
	// this instant takes the edge's Eval only if its slot lies ahead.
	sweepPS int64
	pos     int
}

// Name returns the clock's name.
func (c *Clock) Name() string { return c.name }

// PeriodPS returns the clock period in picoseconds.
func (c *Clock) PeriodPS() int64 { return c.periodPS }

// Cycles returns the number of rising edges elapsed so far.
func (c *Clock) Cycles() int64 { return c.cycle }

// NowPS returns the absolute simulated time of the edge currently being
// processed, in picoseconds. Cycles() counts *completed* edges (it advances
// after the edge's Eval+Update), so during a component's Eval or Update the
// current edge sits at (Cycles()+1) * PeriodPS. Every clock domain's NowPS
// agrees with kernel time at its own edges, giving cross-domain stamps (e.g.
// latency attribution) one shared monotonic axis.
func (c *Clock) NowPS() int64 { return (c.cycle + 1) * c.periodPS }

// Register adds a component to this clock domain. Components are evaluated
// in registration order; because all communication is through two-phase
// FIFOs, the order affects only arbitration tie-breaks internal to a single
// component, never cross-component value propagation. A Gated component's
// Activity is bound to this clock.
func (c *Clock) Register(comp Clocked) {
	act := awake
	if g, ok := comp.(Gated); ok {
		act = g.Activity()
		act.bind(c, g, len(c.slots))
	}
	c.slots = append(c.slots, slot{comp: comp, act: act})
	if c.kernel != nil {
		c.kernel.invalidateSchedule()
	}
}

// NumRegistered returns the number of components currently registered on the
// clock. Shard assembly uses it to weigh clock domains when balancing units
// across shards.
func (c *Clock) NumRegistered() int { return len(c.slots) }

// Kernel owns simulated time and all clock domains.
//
// The edge scheduler is precomputed: clock periods are fixed integers, so
// the firing pattern repeats with the hyperperiod (LCM of all periods). The
// kernel lazily builds one of three dispatch tiers on the first Step after a
// clock or component is added:
//
//  1. single-clock fast path — no min-scan, no grouping at all;
//  2. hyperperiod schedule — the distinct firing offsets within one
//     hyperperiod, each with its pre-sorted clock group, stepped by index;
//  3. generic path — when the hyperperiod would be too long to tabulate
//     (co-prime periods such as 7519 ps for a quantized 133 MHz clock), a
//     single min-scan over clocks pre-sorted by name into a reusable
//     firing buffer.
//
// All three tiers fire the exact same edges in the exact same order as a
// naive per-step min-scan + stable name sort, and none of them allocates in
// steady state. Every tier skips sleeping gated components (see Activity),
// and Advance ticks whole edge groups in which every component sleeps.
type Kernel struct {
	nowPS  int64
	clocks []*Clock
	// stopped is set by Stop; Run loops exit at the next edge boundary.
	stopped bool
	// fullEval disables activity gating (SetFullEval).
	fullEval bool
	// evaluated and skipped count component-edges (EvalCounts).
	evaluated, skipped int64

	// --- lazily built edge schedule (see buildSchedule) ---
	schedValid bool
	single     *Clock      // tier 1: the only clock, or nil
	groups     []edgeGroup // tier 2: hyperperiod schedule, or empty
	hyper      int64       // hyperperiod in ps (tier 2)
	base       int64       // absolute time of the current hyperperiod start
	gidx       int         // next group to fire within the hyperperiod
	sorted     []*Clock    // tier 3: clocks stably sorted by name
	firing     []*Clock    // tier 3: reusable buffer of clocks firing next
	// scanned marks firing and firingPS as the next group, found by a
	// tickIdle that left it to Step.
	scanned  bool
	firingPS int64
}

// edgeGroup is one distinct firing instant within the hyperperiod: the
// clocks due at base+offset in their deterministic (name-sorted) order. The
// group is swept clock by clock, so each clock records how far its sweep
// has got (Activity.wake needs it), and the per-clock cycle counters advance
// between clock segments of the Update phase exactly as in the generic path
// (a component's Update may observe another domain's Cycles()).
type edgeGroup struct {
	offset int64 // firing time relative to the hyperperiod start, in (0, hyper]
	clocks []*Clock
}

// maxHyperEdges bounds the tabulated schedule size; hyperperiods with more
// distinct edges (or that overflow int64 during the LCM computation) fall
// back to the generic min-scan path.
const maxHyperEdges = 4096

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns current simulated time in picoseconds.
func (k *Kernel) Now() int64 { return k.nowPS }

// Clocks returns the registered clock domains in creation order. The slice is
// the kernel's own — callers must not mutate it.
func (k *Kernel) Clocks() []*Clock { return k.clocks }

// Stop requests that the current Run loop exit after the in-flight edge.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// ResetStop clears a previous Stop so the kernel — and any platform built on
// it — can be reused for another run.
func (k *Kernel) ResetStop() { k.stopped = false }

// NewClock creates and registers a clock domain with the given frequency.
// The first edge fires at t = period (all clocks start aligned at phase 0).
//
// Periods are quantized to an integer number of picoseconds with
// math.Round(1e6/freqMHz), so frequencies that do not divide 1 µs are
// realized slightly off-nominal: 333 MHz becomes 3003 ps (≈332.96 MHz) and
// 133 MHz becomes 7519 ps (≈133.01 MHz). The quantization is deterministic
// and identical on every platform, so cross-domain cycle ratios are exactly
// reproducible; use NewClockPeriodPS when an exact period matters more than
// a nominal frequency.
func (k *Kernel) NewClock(name string, freqMHz float64) *Clock {
	if freqMHz <= 0 {
		panic(fmt.Sprintf("sim: non-positive frequency %v for clock %q", freqMHz, name))
	}
	period := int64(math.Round(1e6 / freqMHz))
	if period <= 0 {
		period = 1
	}
	return k.NewClockPeriodPS(name, period)
}

// NewClockPeriodPS creates a clock from an exact period in picoseconds.
func (k *Kernel) NewClockPeriodPS(name string, periodPS int64) *Clock {
	if periodPS <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %d for clock %q", periodPS, name))
	}
	c := &Clock{name: name, periodPS: periodPS, nextEdge: periodPS, kernel: k, wakeMin: math.MaxInt64}
	k.clocks = append(k.clocks, c)
	k.invalidateSchedule()
	return c
}

// invalidateSchedule forces a rebuild on the next Step; called whenever the
// clock set or a component list changes.
func (k *Kernel) invalidateSchedule() { k.schedValid, k.scanned = false, false }

// buildSchedule selects and constructs the dispatch tier. Runs once per
// topology change, never in steady state.
func (k *Kernel) buildSchedule() {
	k.schedValid = true
	k.single = nil
	k.groups = k.groups[:0]
	if len(k.clocks) == 0 {
		return
	}
	if len(k.clocks) == 1 {
		k.single = k.clocks[0]
		return
	}
	// Deterministic firing order: stable sort by name (registration order
	// breaks ties), matching the per-step sort the kernel historically did.
	k.sorted = append(k.sorted[:0], k.clocks...)
	sort.SliceStable(k.sorted, func(i, j int) bool { return k.sorted[i].name < k.sorted[j].name })
	k.buildHyperperiod()
}

// buildHyperperiod tabulates the firing groups of one hyperperiod, or leaves
// k.groups empty to select the generic path.
func (k *Kernel) buildHyperperiod() {
	hyper := int64(1)
	for _, c := range k.clocks {
		g := gcd64(hyper, c.periodPS)
		quot := hyper / g
		if quot > math.MaxInt64/c.periodPS {
			return // LCM overflow: generic path
		}
		hyper = quot * c.periodPS
	}
	var edges int64
	for _, c := range k.clocks {
		edges += hyper / c.periodPS
	}
	if edges > maxHyperEdges {
		return // schedule too large to be worth tabulating
	}
	// Distinct firing offsets within (0, hyper].
	offs := make([]int64, 0, edges)
	for _, c := range k.sorted {
		for t := c.periodPS; t <= hyper; t += c.periodPS {
			offs = append(offs, t)
		}
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	groups := make([]edgeGroup, 0, len(offs))
	for _, off := range offs {
		if n := len(groups); n > 0 && groups[n-1].offset == off {
			continue
		}
		g := edgeGroup{offset: off}
		for _, c := range k.sorted {
			if off%c.periodPS != 0 {
				continue
			}
			g.clocks = append(g.clocks, c)
		}
		groups = append(groups, g)
	}
	// Position the schedule at the kernel's current state. All clocks tick
	// continuously from phase 0 (nextEdge is always (cycle+1)*period), so
	// the next due edge determines base and gidx; if any clock's state is
	// inconsistent with the periodic pattern (e.g. a clock created mid-run
	// with edges in the simulated past), fall back to the generic path,
	// which reproduces the historical behaviour exactly.
	next := k.clocks[0].nextEdge
	for _, c := range k.clocks[1:] {
		if c.nextEdge < next {
			next = c.nextEdge
		}
	}
	base := (next - 1) / hyper * hyper
	gidx := -1
	for i := range groups {
		if base+groups[i].offset == next {
			gidx = i
			break
		}
	}
	if gidx < 0 {
		return
	}
	pos := base + groups[gidx].offset
	for _, c := range k.clocks {
		due := (pos + c.periodPS - 1) / c.periodPS * c.periodPS
		if due != c.nextEdge {
			return
		}
	}
	k.groups = groups
	k.hyper = hyper
	k.base = base
	k.gidx = gidx
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Step advances simulated time to the next clock edge (or group of
// simultaneous edges) and ticks the affected clock domains. It returns false
// when there are no clocks registered.
func (k *Kernel) Step() bool { return k.stepBounded(math.MaxInt64) }

// Advance ticks the edge groups in which every component sleeps —
// advancing time and cycle counts without running any component — up to the
// next group that would run a component or fire pace, and fires that group
// like Step. It stops early, right after an idle group, once time reaches
// budgetPS. A run loop that checks a time budget, pace's cycle count and
// component state between steps therefore sees exactly what it would see
// stepping group by group: a group nobody runs in changes none of them. It
// returns false when there are no clocks registered. With a nil pace and an
// unbounded budget, Advance does not return once every component sleeps
// without a timer.
func (k *Kernel) Advance(pace *Clock, budgetPS int64) bool {
	for k.tickIdle(pace) {
		if k.nowPS >= budgetPS {
			return true
		}
	}
	return k.Step()
}

// stepBounded fires the next edge group if it is due at or before maxPS and
// reports whether it stepped. It is the single dispatch point for all run
// loops, so the bound check shares the same scan that locates the edge.
func (k *Kernel) stepBounded(maxPS int64) bool {
	if !k.schedValid {
		k.buildSchedule()
	}
	switch {
	case k.single != nil:
		c := k.single
		now := c.nextEdge
		if now > maxPS {
			return false
		}
		k.nowPS = now
		k.evalClock(c, now)
		updateClock(c, now)
		return true
	case len(k.groups) > 0:
		g := &k.groups[k.gidx]
		now := k.base + g.offset
		if now > maxPS {
			return false
		}
		k.nowPS = now
		k.fire(g.clocks, now)
		k.nextGroup()
		return true
	case len(k.clocks) == 0:
		return false
	}
	next := k.scanFiring()
	if next > maxPS {
		return false
	}
	k.scanned = false
	k.nowPS = next
	k.fire(k.firing, next)
	return true
}

// fire ticks one edge group synchronously: every clock's Eval sweep, then
// every clock's Update sweep, so simultaneous edges across domains behave
// like a single wider domain.
func (k *Kernel) fire(clocks []*Clock, now int64) {
	for _, c := range clocks {
		k.evalClock(c, now)
	}
	for _, c := range clocks {
		updateClock(c, now)
	}
}

// nextGroup moves the tabulated schedule on by one group.
func (k *Kernel) nextGroup() {
	k.gidx++
	if k.gidx == len(k.groups) {
		k.gidx = 0
		k.base += k.hyper
	}
}

// scanFiring is the generic tier's edge search: one scan over the
// name-sorted clocks finds the minimum edge and collects the firing group
// into a reusable buffer, already in deterministic order. A group tickIdle
// found and did not tick is reused as is.
func (k *Kernel) scanFiring() int64 {
	if k.scanned {
		return k.firingPS
	}
	next := int64(math.MaxInt64)
	k.firing = k.firing[:0]
	for _, c := range k.sorted {
		switch {
		case c.nextEdge < next:
			next = c.nextEdge
			k.firing = append(k.firing[:0], c)
		case c.nextEdge == next:
			k.firing = append(k.firing, c)
		}
	}
	k.firingPS = next
	return next
}

// tickIdle ticks the next edge group without running a single component
// when every component it would tick sleeps past it and pace does not fire
// in it, and reports whether it did.
func (k *Kernel) tickIdle(pace *Clock) bool {
	if !k.schedValid {
		k.buildSchedule()
	}
	var clocks []*Clock
	var now int64
	switch {
	case k.single != nil:
		clocks, now = k.clocks, k.single.nextEdge
	case len(k.groups) > 0:
		g := &k.groups[k.gidx]
		clocks, now = g.clocks, k.base+g.offset
	case len(k.clocks) == 0:
		return false
	default:
		now = k.scanFiring()
		clocks = k.firing
		k.scanned = true
	}
	for _, c := range clocks {
		if c == pace || !c.idleAt(now) {
			return false
		}
	}
	k.scanned = false
	k.nowPS = now
	for _, c := range clocks {
		c.skipEdge()
	}
	if len(k.groups) > 0 {
		k.nextGroup()
	}
	return true
}

// idleAt reports whether every component of the clock sleeps past the edge
// at now.
func (c *Clock) idleAt(now int64) bool { return c.sleepers == len(c.slots) && c.wakeMin > now }

// skipEdge completes an edge at which every component sleeps.
func (c *Clock) skipEdge() {
	c.kernel.skipped += int64(len(c.slots))
	c.cycle++
	c.nextEdge += c.periodPS
}

// evalClock runs the clock's Eval sweep at now: Eval on every awake
// component in registration order, counting the component-edges evaluated
// and skipped. A sleeper whose timed wake-up is due books its skipped edges
// first. The sweep also refreshes wakeMin from the sleepers it passes.
func (k *Kernel) evalClock(c *Clock, now int64) {
	c.sweepPS = now
	if c.idleAt(now) {
		c.pos = len(c.slots)
		k.skipped += int64(len(c.slots))
		return
	}
	wakeMin := int64(math.MaxInt64)
	skipped := 0
	for i, s := range c.slots {
		a := s.act
		if a.evalPS > now {
			skipped++
			wakeMin = min(wakeMin, a.evalPS)
			continue
		}
		if a.asleep {
			a.resume()
		}
		c.pos = i
		s.comp.Eval()
	}
	c.pos = len(c.slots)
	c.wakeMin = wakeMin
	k.skipped += int64(skipped)
	k.evaluated += int64(len(c.slots) - skipped)
}

// updateClock calls Update on every component of the clock whose Update is
// not gated off at this edge, then completes the clock's cycle.
func updateClock(c *Clock, now int64) {
	if !c.idleAt(now) {
		for _, s := range c.slots {
			if s.act.updPS <= now {
				s.comp.Update()
			}
		}
	}
	c.cycle++
	c.nextEdge += c.periodPS
}

// RunUntil, RunCycles and RunWhile settle sleeping components (Settle) before
// they return, so statistics read after them are exact; a caller stepping
// with Step settles itself before reading.

// RunUntil advances until simulated time reaches ps (inclusive of edges at
// exactly ps) or Stop is called.
func (k *Kernel) RunUntil(ps int64) {
	for !k.stopped && k.stepBounded(ps) {
	}
	k.Settle()
}

// RunCycles runs n rising edges of the given clock (other clocks advance as
// needed) or until Stop.
func (k *Kernel) RunCycles(c *Clock, n int64) {
	defer k.Settle()
	target := c.cycle + n
	for !k.stopped && c.cycle < target {
		if !k.Step() {
			return
		}
	}
}

// RunWhile steps the kernel while cond returns true, up to maxPS of
// simulated time. It returns true if cond went false (normal exit), false on
// timeout or Stop.
func (k *Kernel) RunWhile(cond func() bool, maxPS int64) bool {
	defer k.Settle()
	for cond() {
		if k.stopped || k.nowPS >= maxPS {
			return false
		}
		if !k.Step() {
			return false
		}
	}
	return true
}

// PeekNextEdge returns the absolute time of the next due clock edge without
// executing it, or -1 when the kernel has no clocks. Shard coordinators use
// it to walk several kernels through a shared global instant order.
func (k *Kernel) PeekNextEdge() int64 { return k.peekNextEdge() }

// SetNow forces the kernel's notion of current simulated time. It exists for
// shard assembly only: after a sharded run the platform kernel itself never
// stepped, so the coordinator stamps the final instant back before results
// are collected. Calling it on a kernel that is actively stepping corrupts
// the time axis.
func (k *Kernel) SetNow(ps int64) { k.nowPS = ps }

// AdoptClock moves an existing clock (with its registered components and its
// cycle/edge state) into this kernel, detaching it from the kernel that
// created it. Shard assembly uses it to hand whole clock domains to per-shard
// kernels while every component keeps its original *Clock pointer. Both
// kernels' edge schedules are invalidated.
func (k *Kernel) AdoptClock(c *Clock) {
	if old := c.kernel; old != nil {
		for i, oc := range old.clocks {
			if oc == c {
				old.clocks = append(old.clocks[:i], old.clocks[i+1:]...)
				break
			}
		}
		old.invalidateSchedule()
	}
	c.kernel = k
	k.clocks = append(k.clocks, c)
	k.invalidateSchedule()
}

// TakeComponents removes and returns the clock's registered components in
// registration order. Shard assembly uses it on a clock whose components are
// split across shards (the central domain): the journal of registrations is
// then replayed onto the per-shard clocks, preserving relative order.
func (c *Clock) TakeComponents() []Clocked {
	comps := make([]Clocked, len(c.slots))
	for i, s := range c.slots {
		comps[i] = s.comp
	}
	c.slots = nil
	if c.kernel != nil {
		c.kernel.invalidateSchedule()
	}
	return comps
}

func (k *Kernel) peekNextEdge() int64 {
	if !k.schedValid {
		k.buildSchedule()
	}
	switch {
	case k.single != nil:
		return k.single.nextEdge
	case len(k.groups) > 0:
		return k.base + k.groups[k.gidx].offset
	case len(k.clocks) == 0:
		return -1
	}
	next := int64(math.MaxInt64)
	for _, c := range k.clocks {
		if c.nextEdge < next {
			next = c.nextEdge
		}
	}
	return next
}
