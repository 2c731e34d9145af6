package sim

import (
	"fmt"
	"math"
)

// AsyncFifo is a clock-domain-crossing FIFO. The writer stages pushes on its
// own clock; each entry becomes visible to the reader only after syncCycles
// reader-clock edges have elapsed since the push committed — modelling the
// standard two-flop pointer synchronizer of an asynchronous FIFO.
//
// The writer-side component must call WriterUpdate from its Update method;
// the reader side must call ReaderUpdate. (A bridge owning both sides in a
// single component on two clocks uses two small shims; see internal/bridge.)
//
// # Single-producer/single-consumer contract
//
// An AsyncFifo is strictly SPSC and carries no internal synchronization:
// exactly one component stages pushes (Push/CanPush/WriterUpdate) and
// exactly one stages pops (Pop/Peek/CanPop/ReaderUpdate). The two sides may
// run on different goroutines only when every access of one side
// happens-before the conflicting accesses of the other — in this codebase
// that means both sides of a crossing live inside the same shard, stepped by
// one goroutine. WriterUpdate reads the reader clock's cycle counter and
// appends to the shared entry slice, so splitting the two sides across
// concurrently-running shards is a data race by construction; the sharded
// platform assembly therefore keeps each bridge (owner of both sides) whole
// in a single shard and places the shard cut at the bridge's initiator-port
// bus FIFOs instead (see Fifo.MarkDeferred and DESIGN.md §15). The contract
// is enforced by TestAsyncFifoSPSCStress under the race detector.
type AsyncFifo[T any] struct {
	name       string
	depth      int
	syncCycles int

	readerClk *Clock

	// committed entries with the reader-clock cycle at which they mature
	cur []asyncEntry[T]
	// staged this writer cycle
	pending []T
	npop    int
}

type asyncEntry[T any] struct {
	v       T
	visible int64 // reader clock cycle at which entry becomes poppable
}

// NewAsyncFifo builds a CDC FIFO readable in the given reader clock domain.
// syncCycles is the synchronization latency in reader cycles (typically 2).
func NewAsyncFifo[T any](name string, depth, syncCycles int, readerClk *Clock) *AsyncFifo[T] {
	if depth <= 0 {
		panic(fmt.Sprintf("sim: async fifo %q depth must be positive", name))
	}
	if syncCycles < 0 {
		panic(fmt.Sprintf("sim: async fifo %q negative sync latency", name))
	}
	return &AsyncFifo[T]{
		name:       name,
		depth:      depth,
		syncCycles: syncCycles,
		readerClk:  readerClk,
		cur:        make([]asyncEntry[T], 0, depth),
		pending:    make([]T, 0, depth),
	}
}

// Name returns the FIFO's name.
func (f *AsyncFifo[T]) Name() string { return f.name }

// SetReaderClock re-points the FIFO at a different reader clock domain.
// Shard assembly uses it when a bridge's destination clock is replaced by a
// shard-local replica. The replacement must tick identically — same period
// and same completed-cycle count — so maturity stamps already recorded
// against the old clock stay exact; committed entries are therefore fine,
// but staged operations are not (the call must happen at an edge boundary).
func (f *AsyncFifo[T]) SetReaderClock(clk *Clock) {
	if len(f.pending) != 0 || f.npop != 0 {
		panic(fmt.Sprintf("sim: SetReaderClock on async fifo %q with staged operations (pending=%d npop=%d)",
			f.name, len(f.pending), f.npop))
	}
	if clk.PeriodPS() != f.readerClk.PeriodPS() || clk.Cycles() != f.readerClk.Cycles() {
		panic(fmt.Sprintf("sim: SetReaderClock mismatch on async fifo %q (%d ps/cycle %d -> %d ps/cycle %d)",
			f.name, f.readerClk.PeriodPS(), f.readerClk.Cycles(), clk.PeriodPS(), clk.Cycles()))
	}
	f.readerClk = clk
}

// Depth returns capacity.
func (f *AsyncFifo[T]) Depth() int { return f.depth }

// Len returns committed occupancy (mature or not).
func (f *AsyncFifo[T]) Len() int { return len(f.cur) }

// CanPush reports whether the writer can stage a push this cycle.
func (f *AsyncFifo[T]) CanPush() bool {
	return len(f.cur)+len(f.pending) < f.depth
}

// Push stages an entry on the writer clock.
func (f *AsyncFifo[T]) Push(v T) {
	if !f.CanPush() {
		panic(fmt.Sprintf("sim: push to full async fifo %q", f.name))
	}
	f.pending = append(f.pending, v)
}

// CanPop reports whether a mature entry is available to the reader.
func (f *AsyncFifo[T]) CanPop() bool {
	return f.npop < len(f.cur) && f.cur[f.npop].visible <= f.readerClk.Cycles()
}

// Matures returns the reader-clock cycle at which the oldest entry not yet
// popped becomes poppable (CanPop once Cycles() reaches it), or
// math.MaxInt64 when there is none. A gated reader sleeps until then.
func (f *AsyncFifo[T]) Matures() int64 {
	if f.npop >= len(f.cur) {
		return math.MaxInt64
	}
	return f.cur[f.npop].visible
}

// Peek returns the oldest mature entry without consuming it.
func (f *AsyncFifo[T]) Peek() T {
	if !f.CanPop() {
		panic(fmt.Sprintf("sim: peek on empty async fifo %q", f.name))
	}
	return f.cur[f.npop].v
}

// Pop stages consumption of the oldest mature entry.
func (f *AsyncFifo[T]) Pop() T {
	if !f.CanPop() {
		panic(fmt.Sprintf("sim: pop from empty async fifo %q", f.name))
	}
	v := f.cur[f.npop].v
	f.npop++
	return v
}

// WriterUpdate commits staged pushes; call once per writer-clock cycle.
func (f *AsyncFifo[T]) WriterUpdate() {
	if len(f.pending) == 0 {
		return
	}
	visible := f.readerClk.Cycles() + int64(f.syncCycles)
	for _, v := range f.pending {
		f.cur = append(f.cur, asyncEntry[T]{v: v, visible: visible})
	}
	f.pending = f.pending[:0]
}

// ReaderUpdate commits staged pops; call once per reader-clock cycle.
func (f *AsyncFifo[T]) ReaderUpdate() {
	if f.npop == 0 {
		return
	}
	// Shift the survivors down in place rather than re-slicing the front
	// off: re-slicing discards the front capacity, so the writer's appends
	// reallocate forever in steady state.
	rem := copy(f.cur, f.cur[f.npop:])
	var zero asyncEntry[T]
	for i := rem; i < len(f.cur); i++ {
		f.cur[i] = zero // release references for GC
	}
	f.cur = f.cur[:rem]
	f.npop = 0
}
