package sim

import "fmt"

// Fifo is a synchronous two-phase FIFO. Pushes staged during Eval become
// visible to readers only after Update (i.e. the next cycle); pops staged
// during Eval are likewise committed at Update. CanPush accounts for pushes
// already staged this cycle, so several producers evaluated in the same
// cycle cannot overflow the FIFO. CanPop and Peek see only committed
// entries, so an entry pushed in cycle N is poppable in cycle N+1 at the
// earliest — one cycle of latency per hop, as in registered hardware.
//
// The owning component (or a shared Commit group) must call Update once per
// cycle; the kernel does this when the Fifo is registered on a clock, but
// the usual pattern is for the component owning the FIFO to call
// fifo.Update() from its own Update method.
//
// Storage is a fixed ring of depth slots allocated at construction: the
// committed entries occupy slots head..head+n-1 (mod depth) and pushes
// staged this cycle sit immediately after them, so committing at Update is a
// counter bump with no copying and no allocation. Popped slots are zeroed at
// Update so removed entries drop their references for the GC.
//
// A Fifo is single-producer/single-consumer: at most one component stages
// pushes and at most one stages pops.
type Fifo[T any] struct {
	name  string
	depth int
	buf   []T
	head  int // ring index of the oldest committed entry
	n     int // committed entries (still counting pops staged this cycle)
	npush int // pushes staged this cycle, stored after the committed region
	npop  int // pops staged this cycle

	// pusher and popper are the gated components on either side (nil for
	// an ungated one): a push pokes the popper, a pop or RemoveAt the
	// pusher (see PushedBy and PoppedBy). nextOwned links the FIFOs one
	// Activity owns.
	pusher, popper *Activity
	nextOwned      ownedFifo

	// occupancy statistics (committed state, sampled at Update)
	cycles      int64
	fullCycles  int64
	emptyCycles int64
	maxOcc      int
	pushedTotal int64
}

// NewFifo returns a FIFO with the given capacity. Depth must be positive.
func NewFifo[T any](name string, depth int) *Fifo[T] {
	if depth <= 0 {
		panic(fmt.Sprintf("sim: fifo %q depth must be positive, got %d", name, depth))
	}
	return &Fifo[T]{name: name, depth: depth, buf: make([]T, depth)}
}

// slot maps a logical index (0 = oldest committed entry) to a ring index.
func (f *Fifo[T]) slot(i int) int {
	j := f.head + i
	if j >= f.depth {
		j -= f.depth
	}
	return j
}

// Name returns the FIFO's name.
func (f *Fifo[T]) Name() string { return f.name }

// Depth returns the FIFO capacity.
func (f *Fifo[T]) Depth() int { return f.depth }

// Len returns the committed occupancy (entries visible to the reader).
func (f *Fifo[T]) Len() int { return f.n }

// Staged returns the number of pushes staged this cycle but not yet
// committed. Interface monitors use it to observe "a request is being
// stored this cycle" (e.g. the LMI bus-interface statistics of the paper's
// Fig.6) during the Update phase.
func (f *Fifo[T]) Staged() int { return f.npush }

// SpaceStaged returns the number of free slots accounting for pushes staged
// this cycle but not for staged pops (conservative, hardware-accurate: a
// full FIFO does not accept a push in the same cycle an entry leaves).
func (f *Fifo[T]) SpaceStaged() int { return f.depth - f.n - f.npush }

// CanPush reports whether a push staged now would fit.
func (f *Fifo[T]) CanPush() bool { return f.SpaceStaged() > 0 }

// Push stages an entry for commit at Update. It panics on overflow — callers
// must check CanPush; overflow is a modelling bug, not a runtime condition.
func (f *Fifo[T]) Push(v T) {
	if !f.CanPush() {
		panic(fmt.Sprintf("sim: push to full fifo %q (depth %d)", f.name, f.depth))
	}
	if a := f.popper; a != nil {
		a.Poke()
	}
	f.buf[f.slot(f.n+f.npush)] = v
	f.npush++
}

// PushedBy declares the gated component behind a as the FIFO's pusher: a pop
// or RemoveAt pokes it, so it may sleep while the FIFO is full. Call before
// the run starts.
func (f *Fifo[T]) PushedBy(a *Activity) { f.pusher = bindSide(f.name, "pusher", f.pusher, a) }

// PoppedBy declares the gated component behind a as the FIFO's popper: a
// push pokes it, so it may sleep while nothing is poppable. Call before the
// run starts.
func (f *Fifo[T]) PoppedBy(a *Activity) { f.popper = bindSide(f.name, "popper", f.popper, a) }

// bindSide returns a as the FIFO's side, panicking when a different
// component already holds it: a FIFO has one pusher and one popper.
func bindSide(name, side string, cur, a *Activity) *Activity {
	if cur != nil && cur != a {
		panic(fmt.Sprintf("sim: fifo %q already has a %s", name, side))
	}
	return a
}

// OwnedBy declares that the gated component behind a, already declared the
// FIFO's pusher or popper, commits it from its Update. The component may
// sleep while the FIFO holds committed entries; while it sleeps, a books the
// skipped commits to the occupancy statistics, and the other side's next
// push or pop wakes it first. Call before the run starts.
func (f *Fifo[T]) OwnedBy(a *Activity) {
	if a != f.pusher && a != f.popper {
		panic(fmt.Sprintf("sim: fifo %q owner is neither its pusher nor its popper", f.name))
	}
	f.nextOwned = a.owned
	a.owned = f
}

func (f *Fifo[T]) next() ownedFifo { return f.nextOwned }

// staged reports whether a push or pop is waiting for this cycle's commit;
// its owner may not sleep then.
func (f *Fifo[T]) staged() bool { return f.npush != 0 || f.npop != 0 }

// creditIdle books n commits its sleeping owner skipped. Nothing is staged
// while the owner sleeps — the other side's next push or pop wakes it first
// — so each skipped commit saw the current occupancy.
func (f *Fifo[T]) creditIdle(n int64) {
	f.cycles += n
	switch {
	case f.n >= f.depth:
		f.fullCycles += n
	case f.n == 0:
		f.emptyCycles += n
	}
}

// CanPop reports whether a committed entry is available beyond those already
// popped this cycle.
func (f *Fifo[T]) CanPop() bool { return f.npop < f.n }

// Peek returns the oldest not-yet-popped committed entry without consuming
// it. It panics if none is available.
func (f *Fifo[T]) Peek() T {
	if !f.CanPop() {
		panic(fmt.Sprintf("sim: peek on empty fifo %q", f.name))
	}
	return f.buf[f.slot(f.npop)]
}

// PeekAt returns the i-th not-yet-popped committed entry (0 = oldest). Used
// by lookahead optimizers that inspect the queue without consuming it.
func (f *Fifo[T]) PeekAt(i int) T {
	if i < 0 || f.npop+i >= f.n {
		panic(fmt.Sprintf("sim: peekAt(%d) out of range on fifo %q (len %d, npop %d)", i, f.name, f.n, f.npop))
	}
	return f.buf[f.slot(f.npop+i)]
}

// RemoveAt stages removal of the i-th not-yet-popped committed entry
// (0 = oldest) and returns it. RemoveAt(0) is equivalent to Pop. Removal of
// an inner entry models an out-of-order scheduler picking from a queue; the
// entry leaves the committed region immediately (its slot is reusable this
// same cycle), matching a scheduler that frees the queue slot on issue. Only
// one RemoveAt with i>0 per cycle is supported (sufficient for the LMI
// optimizer, which issues one command per cycle).
func (f *Fifo[T]) RemoveAt(i int) T {
	if i == 0 {
		return f.Pop()
	}
	idx := f.npop + i
	if i < 0 || idx >= f.n {
		panic(fmt.Sprintf("sim: removeAt(%d) out of range on fifo %q", i, f.name))
	}
	if a := f.pusher; a != nil {
		a.Poke()
	}
	v := f.buf[f.slot(idx)]
	// Close the gap in place: shift the younger committed entries and any
	// pushes staged this cycle down one slot, then clear the vacated slot
	// so the removed entry drops its reference.
	last := f.n + f.npush - 1
	for j := idx; j < last; j++ {
		f.buf[f.slot(j)] = f.buf[f.slot(j+1)]
	}
	var zero T
	f.buf[f.slot(last)] = zero
	f.n--
	return v
}

// Pop stages consumption of the oldest committed entry and returns it.
func (f *Fifo[T]) Pop() T {
	if !f.CanPop() {
		panic(fmt.Sprintf("sim: pop from empty fifo %q", f.name))
	}
	if a := f.pusher; a != nil {
		a.Poke()
	}
	v := f.buf[f.slot(f.npop)]
	f.npop++
	return v
}

// Update commits staged pushes and pops and samples occupancy statistics.
// Call exactly once per cycle of the owning clock domain.
func (f *Fifo[T]) Update() {
	if f.npop > 0 {
		var zero T
		for i := 0; i < f.npop; i++ {
			f.buf[f.slot(i)] = zero // release references for GC
		}
		f.head = f.slot(f.npop)
		f.n -= f.npop
		f.npop = 0
	}
	if f.npush > 0 {
		// Staged entries already sit in their final slots: commit is a
		// counter bump.
		f.n += f.npush
		f.pushedTotal += int64(f.npush)
		f.npush = 0
	}
	f.cycles++
	switch {
	case f.n >= f.depth:
		f.fullCycles++
	case f.n == 0:
		f.emptyCycles++
	}
	if f.n > f.maxOcc {
		f.maxOcc = f.n
	}
}

// Reset discards all committed and staged state and statistics. The
// preallocated ring storage is retained (and cleared), so a Reset FIFO is
// immediately reusable with no further allocation.
func (f *Fifo[T]) Reset() {
	var zero T
	for i := range f.buf {
		f.buf[i] = zero
	}
	f.head, f.n, f.npush, f.npop = 0, 0, 0, 0
	f.cycles, f.fullCycles, f.emptyCycles, f.pushedTotal = 0, 0, 0, 0
	f.maxOcc = 0
}

// Stats returns occupancy statistics sampled at each Update.
func (f *Fifo[T]) Stats() FifoStats {
	return FifoStats{
		Cycles:       f.cycles,
		FullCycles:   f.fullCycles,
		EmptyCycles:  f.emptyCycles,
		MaxOccupancy: f.maxOcc,
		Pushed:       f.pushedTotal,
	}
}

// FifoStats summarizes a FIFO's lifetime occupancy.
type FifoStats struct {
	Cycles       int64
	FullCycles   int64
	EmptyCycles  int64
	MaxOccupancy int
	Pushed       int64
}

// FullFrac returns the fraction of cycles the FIFO was full.
func (s FifoStats) FullFrac() float64 { return frac(s.FullCycles, s.Cycles) }

// EmptyFrac returns the fraction of cycles the FIFO was empty.
func (s FifoStats) EmptyFrac() float64 { return frac(s.EmptyCycles, s.Cycles) }

func frac(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
