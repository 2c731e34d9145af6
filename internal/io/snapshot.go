package io

import (
	"mpsocsim/internal/attr"
	"mpsocsim/internal/snapshot"
)

// EncodeState serializes the DMA engine's mutable state (DESIGN.md §17): the
// issue side (whose tracked requests carry their transaction kinds), the
// PRNG, chain progress and the current descriptor's move state.
// Configuration is spec-derived and not serialized.
func (en *Engine) EncodeState(e *snapshot.Encoder) {
	e.Tag('E')
	en.EncodeIssuerState(e)
	e.U(en.rng.State())
	e.I(int64(en.desc))
	e.I(en.gapLeft)
	e.Bool(en.fetchIssued)
	e.Bool(en.fetchDone)
	e.I(int64(en.chunksTotal))
	e.I(int64(en.lastBeats))
	e.I(int64(en.readsIssued))
	e.I(int64(en.readsDone))
	e.I(int64(en.writesIssued))
	e.I(int64(en.writesDone))
	e.Bool(en.wbIssued)
	e.I(en.descsFetched)
}

// DecodeState restores an engine serialized by EncodeState. A tracked
// request must carry one of the engine's transaction kinds.
func (en *Engine) DecodeState(d *snapshot.Decoder, col *attr.Collector) {
	d.Tag('E')
	en.DecodeIssuerState(d, col, dmaKindWriteback+1)
	en.rng.SetState(d.U())
	en.desc = int(d.I())
	en.gapLeft = d.I()
	en.fetchIssued = d.Bool()
	en.fetchDone = d.Bool()
	en.chunksTotal = int(d.I())
	en.lastBeats = int(d.I())
	en.readsIssued = int(d.I())
	en.readsDone = int(d.I())
	en.writesIssued = int(d.I())
	en.writesDone = int(d.I())
	en.wbIssued = d.Bool()
	en.descsFetched = d.I()
}

// EncodeState serializes the IRQ device's mutable state: the issue side, the
// PRNG, the pending-event raise ring, the head event's service progress and
// the deadline counters.
func (dev *Device) EncodeState(e *snapshot.Encoder) {
	e.Tag('Q')
	dev.EncodeIssuerState(e)
	e.U(dev.rng.State())
	e.I(dev.nextRaiseIn)
	e.U(uint64(dev.pending))
	for i := int64(0); i < dev.pending; i++ {
		e.I(dev.raiseRing[(dev.head+int(i))%len(dev.raiseRing)])
	}
	e.I(dev.pendingMax)
	e.I(int64(dev.burstsIssued))
	e.I(int64(dev.burstsDone))
	e.I(dev.raised)
	e.I(dev.serviced)
	e.I(dev.met)
	e.I(dev.missed)
	dev.svcLatency.EncodeState(e)
}

// DecodeState restores a device serialized by EncodeState. Pending raises
// are re-packed from ring slot 0, which preserves FIFO order.
func (dev *Device) DecodeState(d *snapshot.Decoder, col *attr.Collector) {
	d.Tag('Q')
	dev.DecodeIssuerState(d, col, 1)
	dev.rng.SetState(d.U())
	dev.nextRaiseIn = d.I()
	np := d.N(len(dev.raiseRing))
	if d.Err() != nil {
		return
	}
	dev.head = 0
	dev.pending = int64(np)
	for i := 0; i < np; i++ {
		dev.raiseRing[i] = d.I()
	}
	dev.pendingMax = d.I()
	dev.burstsIssued = int(d.I())
	dev.burstsDone = int(d.I())
	dev.raised = d.I()
	dev.serviced = d.I()
	dev.met = d.I()
	dev.missed = d.I()
	dev.svcLatency.DecodeState(d)
}

// EncodeState serializes the heap allocator's mutable state: the issue side
// (whose one tracked request is the op's in-flight transaction), the PRNG,
// the op state machine, the live-block table and the counters.
func (h *Allocator) EncodeState(e *snapshot.Encoder) {
	e.Tag('H')
	h.EncodeIssuerState(e)
	e.U(h.rng.State())
	e.I(h.opsDone)
	e.I(h.gapLeft)
	e.U(uint64(h.step))
	e.Bool(h.opFree)
	e.I(int64(h.opSize))
	e.U(h.opAddr)
	e.U(h.cursor)
	e.U(uint64(h.live))
	for i := 0; i < h.live; i++ {
		e.U(h.liveAddr[i])
		e.I(int64(h.liveSize[i]))
	}
	e.I(h.mallocs)
	e.I(h.frees)
	e.I(h.allocedBytes)
}

// DecodeState restores an allocator serialized by EncodeState.
func (h *Allocator) DecodeState(d *snapshot.Decoder, col *attr.Collector) {
	d.Tag('H')
	h.DecodeIssuerState(d, col, 1)
	h.rng.SetState(d.U())
	h.opsDone = d.I()
	h.gapLeft = d.I()
	step := d.U()
	if d.Err() != nil {
		return
	}
	if step > uint64(hsBodyIssued) {
		d.Corrupt("io halloc %q has unknown op step %d", h.cfg.Name, step)
		return
	}
	h.step = uint8(step)
	h.opFree = d.Bool()
	h.opSize = int(d.I())
	h.opAddr = d.U()
	h.cursor = d.U()
	nl := d.N(len(h.liveAddr))
	if d.Err() != nil {
		return
	}
	if nl == len(h.liveAddr) && h.step != hsIdle && !h.opFree {
		d.Corrupt("io halloc %q has a malloc in progress with all %d live slots taken", h.cfg.Name, nl)
		return
	}
	h.live = nl
	for i := 0; i < nl; i++ {
		h.liveAddr[i] = d.U()
		h.liveSize[i] = int(d.I())
	}
	h.mallocs = d.I()
	h.frees = d.I()
	h.allocedBytes = d.I()
}
