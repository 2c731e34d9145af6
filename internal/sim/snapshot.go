package sim

import (
	"fmt"

	"mpsocsim/internal/snapshot"
)

// Checkpoint support for the kernel primitives (DESIGN.md §16). Snapshots
// are taken only at an edge boundary — between kernel Steps — where every
// two-phase FIFO is quiescent: no pushes or pops are staged, and
// clock-domain-crossing FIFOs hold no pending writer-side entries. The
// encode helpers assert that quiescence; hitting one of the panics means a
// snapshot was attempted mid-step, which is a programming error, not a data
// error.

// State returns the PRNG's internal state for checkpointing.
func (r *Rand) State() uint64 { return r.state }

// SetState overwrites the PRNG's internal state (checkpoint restore).
func (r *Rand) SetState(s uint64) { r.state = s }

// EncodeState serializes the kernel's time axis: absolute now plus every
// clock's completed-cycle count, in clock creation order. The edge schedule
// is not serialized — it is a pure cache, lazily rebuilt from the clock
// state after restore.
func (k *Kernel) EncodeState(e *snapshot.Encoder) {
	k.catchUpAll()
	e.Tag('K')
	e.I(k.nowPS)
	e.U(uint64(len(k.clocks)))
	for _, c := range k.clocks {
		e.I(c.cycle)
	}
}

// DecodeState restores the kernel's time axis onto the same clock set (the
// platform rebuilds topology from the spec before decoding, so clock count
// and creation order match by construction).
func (k *Kernel) DecodeState(d *snapshot.Decoder) {
	k.unparkAll()
	d.Tag('K')
	now := d.I()
	n := d.N(1 << 10)
	if d.Err() != nil {
		return
	}
	if n != len(k.clocks) {
		d.Corrupt("kernel clock count %d does not match platform's %d", n, len(k.clocks))
		return
	}
	for _, c := range k.clocks {
		c.cycle = d.I()
		if c.cycle < 0 {
			d.Corrupt("negative cycle count for clock %q", c.name)
			return
		}
		// All clocks tick continuously from phase 0, so the next edge is
		// always the one after the last completed cycle.
		c.nextEdge = (c.cycle + 1) * c.periodPS
	}
	k.nowPS = now
	k.invalidateSchedule()
}

// EncodeFifoState serializes a quiescent FIFO: committed entries oldest
// first (via elem) plus the lifetime occupancy statistics. The ring origin
// is not preserved — slot indices are unobservable.
func EncodeFifoState[T any](e *snapshot.Encoder, f *Fifo[T], elem func(*snapshot.Encoder, T)) {
	if f.npush != 0 || f.npop != 0 {
		panic(fmt.Sprintf("sim: snapshot of fifo %q with staged operations (npush=%d npop=%d)", f.name, f.npush, f.npop))
	}
	e.Tag('F')
	e.U(uint64(f.n))
	for i := 0; i < f.n; i++ {
		elem(e, f.buf[f.slot(i)])
	}
	e.I(f.cycles)
	e.I(f.fullCycles)
	e.I(f.emptyCycles)
	e.U(uint64(f.maxOcc))
	e.I(f.pushedTotal)
}

// DecodeFifoState restores a FIFO serialized by EncodeFifoState into f,
// which must have the same depth (guaranteed when the platform was rebuilt
// from the same spec). Entries land at ring origin zero.
func DecodeFifoState[T any](d *snapshot.Decoder, f *Fifo[T], elem func(*snapshot.Decoder) T) {
	d.Tag('F')
	n := d.N(f.depth)
	if d.Err() != nil {
		return
	}
	var zero T
	for i := range f.buf {
		f.buf[i] = zero
	}
	f.head, f.npush, f.npop = 0, 0, 0
	f.n = n
	for i := 0; i < n; i++ {
		f.buf[i] = elem(d)
	}
	f.cycles = d.I()
	f.fullCycles = d.I()
	f.emptyCycles = d.I()
	f.maxOcc = d.N(f.depth)
	f.pushedTotal = d.I()
}

// EncodeAsyncFifoState serializes a quiescent CDC FIFO: committed entries
// with their maturity stamps. Writer-side pending entries and staged pops
// must be absent (edge boundary).
func EncodeAsyncFifoState[T any](e *snapshot.Encoder, f *AsyncFifo[T], elem func(*snapshot.Encoder, T)) {
	if len(f.pending) != 0 || f.npop != 0 {
		panic(fmt.Sprintf("sim: snapshot of async fifo %q with staged operations (pending=%d npop=%d)", f.name, len(f.pending), f.npop))
	}
	e.Tag('A')
	e.U(uint64(len(f.cur)))
	for i := range f.cur {
		elem(e, f.cur[i].v)
		e.I(f.cur[i].visible)
	}
}

// DecodeAsyncFifoState restores a CDC FIFO serialized by
// EncodeAsyncFifoState.
func DecodeAsyncFifoState[T any](d *snapshot.Decoder, f *AsyncFifo[T], elem func(*snapshot.Decoder) T) {
	d.Tag('A')
	n := d.N(f.depth)
	if d.Err() != nil {
		return
	}
	f.cur = f.cur[:0]
	f.pending = f.pending[:0]
	f.npop = 0
	for i := 0; i < n; i++ {
		v := elem(d)
		vis := d.I()
		f.cur = append(f.cur, asyncEntry[T]{v: v, visible: vis})
	}
}
