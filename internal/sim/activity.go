package sim

import "math"

// Activity gating (DESIGN.md §20).
//
// Most components spend long spells doing nothing but counting: an initiator
// waiting for a response, a DSP core stalled on a cache refill, a fabric or
// bridge whose next transfer waits for room in a full FIFO. A gated
// component puts itself to sleep at the end of such an edge, and the kernel
// then skips both its Eval and its Update until something can change what
// it would do:
//
//   - a push into a FIFO it pops, or a pop from a FIFO it pushes
//     (Fifo.Push, Pop and RemoveAt poke the other side);
//   - a timed wake-up it asked for when it went to sleep (inter-burst gaps,
//     IRQ raise timers, bridge delay lines and CDC maturity, timed replay);
//   - an explicit Poke where two components share state outside FIFOs (the
//     two clock-domain sides of a bridge).
//
// The skipped edges are not lost: on waking — and whenever the platform is
// about to read counters (Kernel.Settle) — the component books them to its
// per-edge statistics (CreditIdle) and the Activity books them to the
// occupancy statistics of the FIFOs it owns. A sleeper's FIFOs do not change
// — the poke that ends the sleep comes before the push or pop — so each
// skipped commit saw the occupancy the component fell asleep with. Every
// counter, report and snapshot byte therefore equals full evaluation.

// Gated is a component the kernel may skip while it sleeps. Register binds
// the component's Activity to the clock it is registered on.
type Gated interface {
	Clocked
	// Activity returns the component's sleep state.
	Activity() *Activity
	// CreditIdle books n skipped edges: exactly the per-edge counting
	// (cycle and stall counters, countdowns, arbitration pointers) n
	// consecutive Evals would have done in the state the component fell
	// asleep with.
	CreditIdle(n int64)
}

// Activity is the sleep state of one gated component. The zero value is
// awake; a component embeds one and declares the FIFOs it pushes, pops and
// owns (Fifo.PushedBy, PoppedBy, OwnedBy) before the run starts.
type Activity struct {
	// The kernel skips the owner's Eval while evalPS is after the current
	// edge, and its Update while updPS is. Zero (any past instant) means
	// awake.
	evalPS, updPS int64
	asleep        bool
	// pokedAt is the owner-clock edge (Cycles()+1) of the latest poke that
	// found the owner awake. The change behind it may become visible only
	// at a commit later in that edge, so a sleep request at that edge is
	// refused.
	pokedAt int64
	// full disables sleeping (Kernel.SetFullEval).
	full bool
	// since is the owner clock's completed-cycle count up to which the
	// owner's per-edge counting is booked while it sleeps.
	since int64
	// idx is the owner's slot in its clock's registration order.
	idx int

	clk   *Clock
	owner Gated
	// owned heads the list of FIFOs the owner commits, linked through
	// the FIFOs themselves (Fifo.OwnedBy).
	owned ownedFifo
}

// ownedFifo is the owner-side surface of a Fifo the Activity credits while
// its owner sleeps.
type ownedFifo interface {
	staged() bool
	creditIdle(n int64)
	next() ownedFifo
}

// awake is the gate of every ungated component: never asleep, never
// written.
var awake = &Activity{}

// Asleep reports whether the owner is currently skipped by the kernel.
func (a *Activity) Asleep() bool { return a.asleep }

// Sleep puts the owner to sleep after the current edge until a poke wakes
// it. See SleepUntil.
func (a *Activity) Sleep() { a.SleepUntil(math.MaxInt64) }

// SleepUntil puts the owner to sleep after the current edge, to be woken no
// later than the edge at which its clock's Cycles() reads cycle during Eval.
// The owner calls it from Update, after committing its own FIFOs, when the
// edge's Eval did nothing but count and the next Eval would do the same —
// which may hold with entries queued in its FIFOs, as long as whatever it
// waits on can only move through a poke. The request is ignored — the owner
// simply stays awake, which is always exact — when the owner was poked during
// this edge, when an owned FIFO stages a push or pop, when the wake-up is due
// at the very next edge, or under full evaluation.
func (a *Activity) SleepUntil(cycle int64) {
	c := a.clk
	if a.full || a.asleep || c == nil || cycle <= c.cycle+1 || a.pokedAt == c.cycle+1 {
		return
	}
	for f := a.owned; f != nil; f = f.next() {
		if f.staged() {
			return
		}
	}
	a.asleep = true
	c.sleepers++
	a.since = c.cycle + 1 // this edge's counting is already done
	at := int64(math.MaxInt64)
	if cycle < math.MaxInt64/c.periodPS-1 {
		at = (cycle + 1) * c.periodPS
	}
	a.evalPS, a.updPS = at, at
	if at < c.wakeMin {
		c.wakeMin = at
	}
}

// Poke wakes a sleeping owner, or — when it is awake — makes it refuse sleep
// requests for the rest of the current edge. FIFO pushes and pops poke the
// other side; components sharing state outside FIFOs poke each other
// explicitly, before they change it. Pokes happen during the Eval phase, or
// between steps.
func (a *Activity) Poke() {
	if a.asleep {
		a.wake()
		return
	}
	if c := a.clk; c != nil {
		a.pokedAt = c.cycle + 1
	}
}

// wake ends a sleep in the middle of the current edge's Eval phase (or
// between steps) and books the skipped edges. A parked clock is unparked
// first, and joins the group being fired when this edge is one of its own.
// When the owner's clock fires at this edge and the sweep has not reached
// the owner yet — a later slot on the same clock, or a clock later in the
// edge group — the owner takes this edge's Eval, since full evaluation
// would show it the change at once. Otherwise this edge's Eval already went
// by as idle and is booked so, while its Update still runs to commit the
// change that woke it.
func (a *Activity) wake() {
	c := a.clk
	now := c.kernel.nowPS
	if c.parked {
		c.kernel.unpark(c)
		if c.nextEdge == now {
			c.kernel.join(c)
		}
	}
	n := c.cycle - a.since
	a.asleep = false
	c.sleepers--
	a.pokedAt = c.cycle + 1
	a.updPS = 0
	if c.nextEdge == now && (c.sweepPS != now || a.idx > c.pos) {
		a.credit(n, n)
		a.evalPS = 0
		return
	}
	evals := n
	if c.nextEdge == now {
		evals++
	}
	a.credit(evals, n)
	a.evalPS = now + 1
}

// resume ends a sleep at its timed wake-up, just before the kernel calls
// the owner's Eval for this edge.
func (a *Activity) resume() {
	c := a.clk
	n := c.cycle - a.since
	a.credit(n, n)
	a.asleep = false
	c.sleepers--
	a.evalPS, a.updPS = 0, 0
}

// settle books the edges skipped so far, between steps, without waking the
// owner.
func (a *Activity) settle() {
	n := a.clk.cycle - a.since
	a.credit(n, n)
	a.since = a.clk.cycle
}

func (a *Activity) credit(evals, updates int64) {
	if evals > 0 {
		a.owner.CreditIdle(evals)
	}
	if updates > 0 {
		for f := a.owned; f != nil; f = f.next() {
			f.creditIdle(updates)
		}
	}
}

// bind attaches the activity to the clock its owner is registered on, at
// slot idx.
func (a *Activity) bind(c *Clock, owner Gated, idx int) {
	a.clk = c
	a.owner = owner
	a.idx = idx
	if c.kernel != nil && c.kernel.fullEval {
		a.full = true
	}
}

// slot is one registered component with its gate.
type slot struct {
	comp Clocked
	act  *Activity
}

// Settle books every sleeping component's skipped edges up to the current
// instant, leaving it asleep. Call it between steps before reading any
// counter, statistic or snapshot state; the platform does so before
// collecting results, telemetry records, watchdog baselines, observable
// state and snapshots.
func (k *Kernel) Settle() {
	if k.fullEval {
		return // nothing sleeps
	}
	k.catchUpAll()
	for _, c := range k.clocks {
		if c.sleepers == 0 {
			continue
		}
		for _, s := range c.slots {
			if s.act.asleep {
				s.act.settle()
			}
		}
	}
}

// SetFullEval switches full evaluation on or off. With it on, every
// component is evaluated at every edge, as if none were gated: sleepers are
// woken (their skipped edges booked) and further sleep requests are ignored.
// Equivalence tests use it as their oracle; call it between steps.
func (k *Kernel) SetFullEval(on bool) {
	k.unparkAll()
	k.fullEval = on
	for _, c := range k.clocks {
		for _, s := range c.slots {
			a := s.act
			if a == awake {
				continue
			}
			if a.asleep {
				a.resume()
			}
			a.full = on
		}
	}
}

// EvalCounts returns the component-edges the kernel has evaluated and
// skipped since it was created: each registered component counts once per
// edge of its clock, as evaluated when its Eval ran and as skipped when it
// slept.
func (k *Kernel) EvalCounts() (evaluated, skipped int64) {
	k.catchUpAll()
	return k.evaluated, k.skipped
}
