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
	// nextEdge is the instant of the clock's next edge and cycle the edges
	// it has completed. While the clock is parked both fall behind: cycle
	// is then caught up on demand, and nextEdge is the instant the edge
	// scan next visits the clock (see park).
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
	// parked marks a clock Advance leaves out of its edge groups; rank is
	// the clock's place in name order.
	parked bool
	rank   int
}

// Name returns the clock's name.
func (c *Clock) Name() string { return c.name }

// PeriodPS returns the clock period in picoseconds.
func (c *Clock) PeriodPS() int64 { return c.periodPS }

// Cycles returns the number of rising edges elapsed so far.
func (c *Clock) Cycles() int64 {
	if c.parked {
		return c.kernel.edgesDone(c)
	}
	return c.cycle
}

// NowPS returns the absolute simulated time of the edge currently being
// processed, in picoseconds. Cycles() counts *completed* edges (it advances
// after the edge's Eval+Update), so during a component's Eval or Update the
// current edge sits at (Cycles()+1) * PeriodPS. Every clock domain's NowPS
// agrees with kernel time at its own edges, giving cross-domain stamps (e.g.
// latency attribution) one shared monotonic axis.
func (c *Clock) NowPS() int64 { return (c.Cycles() + 1) * c.periodPS }

// Register adds a component to this clock domain. Components are evaluated
// in registration order; because all communication is through two-phase
// FIFOs, the order affects only arbitration tie-breaks internal to a single
// component, never cross-component value propagation. A Gated component's
// Activity is bound to this clock.
func (c *Clock) Register(comp Clocked) {
	if c.kernel != nil {
		c.kernel.unparkAll()
	}
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
// Every step fires the next edge group: the clocks due at the earliest
// instant, in a deterministic order (stable sort by name), first every
// clock's Eval sweep, then every clock's Update sweep. The kernel lazily
// rebuilds its name-sorted clock list on the first step after a clock or
// component is added, and dispatches one of two ways:
//
//  1. single-clock fast path (Step only) — no scan, no grouping at all;
//  2. name-sorted scan — one pass over the sorted clocks finds the earliest
//     edge and collects the firing group into a reusable buffer.
//
// Both fire the exact same edges in the exact same order as a naive
// per-step min-scan + stable name sort, and neither allocates in steady
// state. Every step skips sleeping gated components (see Activity), and
// Advance parks the clocks whose components all sleep, so its scan visits
// only edge groups in which a component runs.
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
	single     *Clock   // the only clock, or nil
	sorted     []*Clock // clocks stably sorted by name
	firing     []*Clock // reusable buffer of the group being fired
	// parked counts the parked clocks.
	parked int
	// phase and at locate the kernel inside the group being fired: the
	// sweep under way and the index in firing of the clock it is sweeping.
	phase phase
	at    int
}

// phase is the part of an edge group the kernel is in.
type phase uint8

const (
	betweenSteps phase = iota
	evalPhase
	updatePhase
)

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
	k.unparkAll()
	c := &Clock{name: name, periodPS: periodPS, nextEdge: periodPS, kernel: k, wakeMin: math.MaxInt64}
	k.clocks = append(k.clocks, c)
	k.invalidateSchedule()
	return c
}

// invalidateSchedule forces a rebuild on the next Step; called whenever the
// clock set or a component list changes.
func (k *Kernel) invalidateSchedule() { k.schedValid = false }

// buildSchedule sorts the clocks by name and selects the dispatch path. Runs
// once per topology change, never in steady state.
func (k *Kernel) buildSchedule() {
	k.schedValid = true
	// Deterministic firing order: stable sort by name (registration order
	// breaks ties), matching the per-step sort the kernel historically did.
	k.sorted = append(k.sorted[:0], k.clocks...)
	sort.SliceStable(k.sorted, func(i, j int) bool { return k.sorted[i].name < k.sorted[j].name })
	for i, c := range k.sorted {
		c.rank = i
	}
	if cap(k.firing) < len(k.sorted) {
		k.firing = make([]*Clock, 0, len(k.sorted))
	}
	k.single = nil
	if len(k.clocks) == 1 {
		k.single = k.clocks[0]
	}
}

// Step advances simulated time to the next clock edge (or group of
// simultaneous edges) and ticks the affected clock domains. It returns false
// when there are no clocks registered.
func (k *Kernel) Step() bool { return k.stepBounded(math.MaxInt64) }

// Advance fires the next edge group like Step, except that it leaves parked
// clocks out: after each group, every clock it fired other than pace whose
// components all sleep parks until its earliest timed wake-up, or until a
// poke wakes one of its components, and a parked clock's cycle count is
// computed only when something reads it. A parked clock's edges run no
// component and change nothing a run loop reads — a time budget, pace's
// cycle count, component state — so the loop sees exactly what it would
// see stepping group by group, and pace still returns control at every one
// of its edges. When the next group lies past budgetPS, Advance may stop
// without firing anything, at the first edge of a parked clock at or after
// both budgetPS and the instant after Now(): the first instant a loop
// stepping group by group would reach at or past the budget. It returns
// false when there are no clocks registered, and when no clock has an edge
// to fire and no parked clock one at which to stop.
func (k *Kernel) Advance(pace *Clock, budgetPS int64) bool {
	if !k.schedValid {
		k.buildSchedule()
	}
	if pace != nil && pace.parked {
		k.unpark(pace)
	}
	next := k.scanFiring()
	if next > budgetPS {
		if stop := k.parkedEdge(max(budgetPS, k.nowPS+1)); stop < next {
			k.nowPS = stop
			return true
		}
	}
	if next == math.MaxInt64 {
		return false
	}
	// A parked clock that comes due catches up to the edge before the
	// group, and fires like any other.
	k.nowPS, k.phase = next, evalPhase
	for _, c := range k.firing {
		if c.parked {
			k.unpark(c)
		}
	}
	k.fire(next)
	for _, c := range k.firing {
		if c != pace && c.sleepers == len(c.slots) {
			k.park(c)
		}
	}
	return true
}

// stepBounded fires the next edge group if it is due at or before maxPS and
// reports whether it stepped. It is the single dispatch point for all run
// loops, so the bound check shares the same scan that locates the edge.
func (k *Kernel) stepBounded(maxPS int64) bool {
	if !k.schedValid {
		k.buildSchedule()
	}
	if k.parked > 0 {
		k.unparkAll()
	}
	if c := k.single; c != nil {
		now := c.nextEdge
		if now > maxPS {
			return false
		}
		k.nowPS = now
		k.evalClock(c, now)
		updateClock(c, now)
		return true
	}
	next := k.scanFiring()
	if next > maxPS || len(k.firing) == 0 {
		return false
	}
	k.fire(next)
	return true
}

// fire ticks the edge group in firing synchronously: every clock's Eval
// sweep, then every clock's Update sweep, so simultaneous edges across
// domains behave like a single wider domain. A woken parked clock may join
// the group while it fires (see join).
func (k *Kernel) fire(now int64) {
	k.nowPS = now
	k.phase = evalPhase
	for k.at = 0; k.at < len(k.firing); k.at++ {
		k.evalClock(k.firing[k.at], now)
	}
	k.phase = updatePhase
	for k.at = 0; k.at < len(k.firing); k.at++ {
		updateClock(k.firing[k.at], now)
	}
	k.phase = betweenSteps
}

// scanFiring is the edge search: one scan over the name-sorted clocks finds
// the minimum edge and collects the firing group into a reusable buffer,
// already in deterministic order.
func (k *Kernel) scanFiring() int64 {
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
	return next
}

// park takes a clock whose components all sleep out of Advance's edge
// groups. The scan next visits it at its first edge at or after its
// earliest timed wake-up. wakeMin is only a lower bound, so the clock may
// then find no sleeper due; its Eval sweep refreshes wakeMin, and it parks
// again.
func (k *Kernel) park(c *Clock) {
	c.parked = true
	k.parked++
	c.nextEdge = max(c.nextEdge, ceilEdge(c.wakeMin, c.periodPS))
}

// ceilEdge returns the first multiple of period at or after t, or
// math.MaxInt64 when it would overflow.
func ceilEdge(t, period int64) int64 {
	if t > math.MaxInt64-period {
		return math.MaxInt64
	}
	return (t + period - 1) / period * period
}

// parkedEdge returns the first edge of a parked clock at or after t, or
// math.MaxInt64 when there is none.
func (k *Kernel) parkedEdge(t int64) int64 {
	edge := int64(math.MaxInt64)
	for _, c := range k.sorted {
		if c.parked {
			edge = min(edge, ceilEdge(t, c.periodPS))
		}
	}
	return edge
}

// edgesDone returns the edges of a parked clock that stepping group by
// group would have completed by now: between steps every edge up to Now();
// in an Eval sweep only those before it; in an Update sweep also the edge
// at Now(), once the sweep has passed the clock's place in name order.
func (k *Kernel) edgesDone(c *Clock) int64 {
	n := k.nowPS / c.periodPS
	if n*c.periodPS == k.nowPS && (k.phase == evalPhase || k.phase == updatePhase && c.rank > k.firing[k.at].rank) {
		n--
	}
	return n
}

// catchUp books a parked clock's edges since it was last caught up as
// skipped component-edges, leaving it parked.
func (k *Kernel) catchUp(c *Clock) {
	n := k.edgesDone(c)
	k.skipped += (n - c.cycle) * int64(len(c.slots))
	c.cycle = n
}

// catchUpAll catches every parked clock up.
func (k *Kernel) catchUpAll() {
	if k.parked == 0 {
		return
	}
	for _, c := range k.clocks {
		if c.parked {
			k.catchUp(c)
		}
	}
}

// unpark catches a parked clock up and returns it to the edge scan.
func (k *Kernel) unpark(c *Clock) {
	k.catchUp(c)
	c.parked = false
	k.parked--
	c.nextEdge = (c.cycle + 1) * c.periodPS
}

// unparkAll unparks every parked clock.
func (k *Kernel) unparkAll() {
	if k.parked == 0 {
		return
	}
	for _, c := range k.clocks {
		if c.parked {
			k.unpark(c)
		}
	}
}

// join inserts a clock unparked at one of its own edges into the group
// being fired, at its place in name order. When that place comes before
// the clock being swept, the joining clock's Eval sweep has passed, and all
// its components count as skipped at this edge, as evalClock books an idle
// clock.
func (k *Kernel) join(c *Clock) {
	i := len(k.firing)
	k.firing = append(k.firing, c)
	for ; i > 0 && k.firing[i-1].rank > c.rank; i-- {
		k.firing[i] = k.firing[i-1]
	}
	k.firing[i] = c
	if k.phase == updatePhase || i <= k.at {
		c.sweepPS, c.pos = k.nowPS, len(c.slots)
		k.skipped += int64(len(c.slots))
	}
	if k.phase == evalPhase && i <= k.at {
		k.at++
	}
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

// idleAt reports whether every component of the clock sleeps past the edge
// at now.
func (c *Clock) idleAt(now int64) bool { return c.sleepers == len(c.slots) && c.wakeMin > now }

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
	k.unparkAll()
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
func (k *Kernel) PeekNextEdge() int64 {
	k.unparkAll()
	if len(k.clocks) == 0 {
		return -1
	}
	next := int64(math.MaxInt64)
	for _, c := range k.clocks {
		next = min(next, c.nextEdge)
	}
	return next
}

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
