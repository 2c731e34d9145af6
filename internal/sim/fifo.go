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
	// pusher (see PushedBy and PoppedBy).
	pusher, popper *Activity
}

// misuse is the panic value of a FIFO operation the caller should have
// guarded (a pop or peek with nothing poppable, a push into a full FIFO).
// Panicking with a small struct instead of a formatted string keeps the
// guarded read methods within the inlining budget, and formats the message
// only when the panic is printed.
type misuse struct{ op, fifo string }

func (m misuse) Error() string { return fmt.Sprintf("sim: %s fifo %q", m.op, m.fifo) }

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
		panic(misuse{"push to full", f.name})
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

// CanPop reports whether a committed entry is available beyond those already
// popped this cycle.
func (f *Fifo[T]) CanPop() bool { return f.npop < f.n }

// Peek returns the oldest not-yet-popped committed entry without consuming
// it. It panics if none is available.
func (f *Fifo[T]) Peek() T {
	if !f.CanPop() {
		panic(misuse{"peek on empty", f.name})
	}
	return f.buf[f.slot(f.npop)]
}

// PeekAt returns the i-th not-yet-popped committed entry (0 = oldest). Used
// by lookahead optimizers that inspect the queue without consuming it.
func (f *Fifo[T]) PeekAt(i int) T {
	if i < 0 || f.npop+i >= f.n {
		panic(misuse{"peekAt out of range on", f.name})
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
		panic(misuse{"removeAt out of range on", f.name})
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
		panic(misuse{"pop from empty", f.name})
	}
	if a := f.pusher; a != nil {
		a.Poke()
	}
	v := f.buf[f.slot(f.npop)]
	f.npop++
	return v
}

// Update commits staged pushes and pops. Call exactly once per cycle of
// the owning clock domain.
func (f *Fifo[T]) Update() {
	if f.npop > 0 {
		f.commitPops()
	}
	// Staged entries already sit in their final slots: committing them is
	// a counter bump.
	f.n += f.npush
	f.npush = 0
}

// commitPops retires the entries popped this cycle, clearing their slots so
// they drop their references for the GC.
func (f *Fifo[T]) commitPops() {
	var zero T
	for i := 0; i < f.npop; i++ {
		f.buf[f.slot(i)] = zero
	}
	f.head = f.slot(f.npop)
	f.n -= f.npop
	f.npop = 0
}

// Reset discards all committed and staged state. The preallocated ring
// storage is retained (and cleared), so a Reset FIFO is immediately
// reusable with no further allocation.
func (f *Fifo[T]) Reset() {
	var zero T
	for i := range f.buf {
		f.buf[i] = zero
	}
	f.head, f.n, f.npush, f.npop = 0, 0, 0, 0
}
