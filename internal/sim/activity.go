package sim

import "math"

// Activity gating (DESIGN.md §20).
//
// Most components spend long spells doing nothing but counting: an initiator
// waiting for a response, a DSP core stalled on a cache refill, a bridge
// whose crossing FIFOs are empty. A gated component puts itself to sleep at
// the end of such an edge, and the kernel then skips both its Eval and its
// Update until something can change what it would do:
//
//   - a push into a FIFO it owns or reads (Fifo.Push pokes every watcher);
//   - a timed wake-up it asked for when it went to sleep (inter-burst gaps,
//     IRQ raise timers, bridge delay lines and CDC maturity, timed replay);
//   - an explicit Poke where two components share state outside FIFOs (the
//     two clock-domain sides of a bridge).
//
// The skipped edges are not lost: on waking — and whenever the platform is
// about to read counters (Kernel.Settle) — the component books them to its
// per-edge statistics (CreditIdle) and the Activity books them to the
// occupancy statistics of the FIFOs it owns. A sleeping component's FIFOs are
// always empty, so their per-cycle commit is known in closed form. Every
// counter, report and snapshot byte therefore equals full evaluation.

// Gated is a component the kernel may skip while it sleeps. Register binds
// the component's Activity to the clock it is registered on.
type Gated interface {
	Clocked
	// Activity returns the component's sleep state.
	Activity() *Activity
	// CreditIdle books n skipped edges: exactly the per-edge counting
	// (cycle and stall counters, countdowns) n consecutive idle Evals
	// would have done.
	CreditIdle(n int64)
}

// Activity is the sleep state of one gated component. The zero value is
// awake; a component embeds one and declares the FIFOs it owns
// (Fifo.OwnedBy) before the run starts.
type Activity struct {
	// The kernel skips the owner's Eval while evalPS is after the current
	// edge, and its Update while updPS is. Zero (any past instant) means
	// awake.
	evalPS, updPS int64
	asleep        bool
	// poked records a push into a watched FIFO, or an explicit Poke, since
	// the owner last asked to sleep. The pushed entry may not be visible
	// to the owner yet (it commits at this edge's Update, possibly after
	// the owner's), so the next sleep request is refused.
	poked bool
	// full disables sleeping (Kernel.SetFullEval).
	full bool
	// since is the owner clock's completed-cycle count up to which the
	// owner's per-edge counting is booked while it sleeps.
	since int64

	clk   *Clock
	owner Gated
	// owned heads the list of FIFOs the owner commits, linked through
	// the FIFOs themselves (Fifo.OwnedBy).
	owned ownedFifo
}

// ownedFifo is the owner-side surface of a Fifo the Activity credits while
// its owner sleeps.
type ownedFifo interface {
	idle() bool
	creditIdle(n int64)
	next() ownedFifo
}

// awake is the gate of every ungated component: never asleep, never
// written.
var awake = &Activity{}

// Asleep reports whether the owner is currently skipped by the kernel.
func (a *Activity) Asleep() bool { return a.asleep }

// Sleep puts the owner to sleep after the current edge until a push into a
// watched FIFO or a Poke wakes it. See SleepUntil.
func (a *Activity) Sleep() { a.SleepUntil(math.MaxInt64) }

// SleepUntil puts the owner to sleep after the current edge, to be woken no
// later than the edge at which its clock's Cycles() reads cycle during Eval.
// The owner calls it from Update, after committing its own FIFOs, when the
// edge's Eval did nothing but count and the next Eval would do the same. The
// request is ignored — the owner simply stays awake, which is always exact —
// when a watched FIFO was pushed since the last request, when any owned FIFO
// holds or stages an entry, when the wake-up is due at the very next edge,
// or under full evaluation.
func (a *Activity) SleepUntil(cycle int64) {
	if a.poked {
		a.poked = false
		return
	}
	c := a.clk
	if a.full || c == nil || cycle <= c.cycle+1 {
		return
	}
	for f := a.owned; f != nil; f = f.next() {
		if !f.idle() {
			return
		}
	}
	a.asleep = true
	a.since = c.cycle + 1 // this edge's counting is already done
	at := int64(math.MaxInt64)
	if cycle < math.MaxInt64/c.periodPS-1 {
		at = (cycle + 1) * c.periodPS
	}
	a.evalPS, a.updPS = at, at
}

// Poke wakes a sleeping owner, or — when it is awake — makes it refuse its
// next sleep request. Fifo.Push pokes every watcher of the FIFO; components
// sharing state outside FIFOs poke each other explicitly. Pokes happen
// during the Eval phase, like the pushes they stand for.
func (a *Activity) Poke() {
	if a.asleep {
		a.wake()
		return
	}
	a.poked = true
}

// wake ends a sleep in the middle of the current edge's Eval phase (or
// between steps). When the owner's clock fires at this edge, its Eval is
// skipped — it would have seen no visible change — and counted as idle,
// while its Update still runs to commit the push that woke it. A timed
// wake-up due at this very edge still gets its Eval.
func (a *Activity) wake() {
	c := a.clk
	now := c.kernel.nowPS
	if a.evalPS <= now {
		a.resume()
		a.poked = true
		return
	}
	n := c.cycle - a.since
	evals := n
	if c.nextEdge == now {
		evals++
	}
	a.credit(evals, n)
	a.asleep = false
	a.poked = true
	a.evalPS = now + 1
	a.updPS = 0
}

// resume ends a sleep at its timed wake-up, just before the kernel calls
// the owner's Eval for this edge.
func (a *Activity) resume() {
	n := a.clk.cycle - a.since
	a.credit(n, n)
	a.asleep = false
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

// bind attaches the activity to the clock its owner is registered on.
func (a *Activity) bind(c *Clock, owner Gated) {
	a.clk = c
	a.owner = owner
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
	for _, c := range k.clocks {
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
// Sharded runs and equivalence tests use it; call it between steps.
func (k *Kernel) SetFullEval(on bool) {
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
func (k *Kernel) EvalCounts() (evaluated, skipped int64) { return k.evaluated, k.skipped }
