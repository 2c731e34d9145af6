package ahb

import (
	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/snapshot"
)

// EncodeState serializes the layer's mutable state (DESIGN.md §16): the
// data-phase and pipelined address-phase transactions, the round-robin
// pointer and the activity counters. Ports belong to the attached components
// and are serialized by their owners.
func (b *Bus) EncodeState(e *snapshot.Encoder) {
	e.Tag('B')
	bus.EncodeReqRef(e, b.cur)
	e.I(int64(b.curTarget))
	bus.EncodeReqRef(e, b.next)
	e.I(int64(b.nextTarget))
	e.I(int64(b.rr))
	e.U(uint64(len(b.attrHead)))
	for _, h := range b.attrHead {
		e.Bool(h)
	}
	e.I(b.cycles)
	e.I(b.busyCycles)
	e.I(b.dataBeats)
	e.I(b.granted)
	e.I(b.stallCycles)
}

// DecodeState restores a layer serialized by EncodeState. Every index it
// restores must address the attached ports; an in-flight slot's slave index
// is -1 only while the slot is empty.
func (b *Bus) DecodeState(d *snapshot.Decoder, col *attr.Collector) {
	d.Tag('B')
	ni, nt := len(b.initiators), len(b.targets)
	b.cur = bus.DecodeInFlight(d, col, ni)
	b.curTarget = d.Int(-1, nt-1, "ahb %q data-phase slave", b.name)
	b.next = bus.DecodeInFlight(d, col, ni)
	b.nextTarget = d.Int(-1, nt-1, "ahb %q address-phase slave", b.name)
	if (b.cur != nil && b.curTarget < 0) || (b.next != nil && b.nextTarget < 0) {
		d.Corrupt("ahb %q in-flight transaction without a slave", b.name)
	}
	b.rr = d.Int(0, max(ni-1, 0), "ahb %q round-robin pointer", b.name)
	nh := d.N(1 << 16)
	if d.Err() != nil {
		return
	}
	if nh != 0 && nh != ni {
		d.Corrupt("ahb %q attr head cache size %d does not match %d masters", b.name, nh, ni)
		return
	}
	b.attrHead = b.attrHead[:0]
	for i := 0; i < nh; i++ {
		b.attrHead = append(b.attrHead, d.Bool())
	}
	b.cycles = d.I()
	b.busyCycles = d.I()
	b.dataBeats = d.I()
	b.granted = d.I()
	b.stallCycles = d.I()
}
