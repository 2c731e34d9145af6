package io

import (
	"sort"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/snapshot"
)

// maxInFlight bounds the decoded in-flight tables; no configuration gets
// anywhere near it, so anything larger is a corrupt stream.
const maxInFlight = 1 << 16

// EncodeState serializes the DMA engine's mutable state (DESIGN.md §17): the
// owned port, the PRNG, chain progress, the current descriptor's move state,
// and the in-flight transaction kinds (sorted by request ID so the stream is
// deterministic). Configuration is spec-derived and not serialized.
func (en *Engine) EncodeState(e *snapshot.Encoder) {
	e.Tag('E')
	bus.EncodeInitiatorPortState(e, en.port)
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
	ids := make([]uint64, 0, len(en.byReqID))
	for id := range en.byReqID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.U(uint64(len(ids)))
	for _, id := range ids {
		e.U(id)
		e.U(uint64(en.byReqID[id]))
	}
	e.I(en.descsFetched)
	e.I(en.bytesMoved)
	e.I(en.issuedTotal)
	e.I(en.completedTotal)
	e.I(en.readsTotal)
	e.I(en.writesTotal)
	en.latency.EncodeState(e)
}

// DecodeState restores an engine serialized by EncodeState.
func (en *Engine) DecodeState(d *snapshot.Decoder, col *attr.Collector) {
	d.Tag('E')
	bus.DecodeInitiatorPortState(d, en.port, col)
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
	for id := range en.byReqID {
		delete(en.byReqID, id)
	}
	nid := d.N(maxInFlight)
	for i := 0; i < nid; i++ {
		id := d.U()
		kind := d.U()
		if d.Err() != nil {
			return
		}
		if kind > uint64(dmaKindWriteback) {
			d.Corrupt("io dma %q in-flight entry has unknown kind %d", en.cfg.Name, kind)
			return
		}
		en.byReqID[id] = uint8(kind)
	}
	en.inFlight = len(en.byReqID)
	en.descsFetched = d.I()
	en.bytesMoved = d.I()
	en.issuedTotal = d.I()
	en.completedTotal = d.I()
	en.readsTotal = d.I()
	en.writesTotal = d.I()
	en.latency.DecodeState(d)
}

// EncodeState serializes the IRQ device's mutable state: the owned port, the
// PRNG, the pending-event raise ring, the head event's service progress, the
// in-flight transaction IDs and the deadline counters.
func (dev *Device) EncodeState(e *snapshot.Encoder) {
	e.Tag('Q')
	bus.EncodeInitiatorPortState(e, dev.port)
	e.U(dev.rng.State())
	e.I(dev.nextRaiseIn)
	e.U(uint64(dev.pending))
	for i := int64(0); i < dev.pending; i++ {
		e.I(dev.raiseRing[(dev.head+int(i))%len(dev.raiseRing)])
	}
	e.I(dev.pendingMax)
	e.I(int64(dev.burstsIssued))
	e.I(int64(dev.burstsDone))
	ids := make([]uint64, 0, len(dev.byReqID))
	for id := range dev.byReqID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.U(uint64(len(ids)))
	for _, id := range ids {
		e.U(id)
	}
	e.I(dev.raised)
	e.I(dev.serviced)
	e.I(dev.met)
	e.I(dev.missed)
	e.I(dev.issuedTotal)
	e.I(dev.completedTotal)
	e.I(dev.readsTotal)
	e.I(dev.writesTotal)
	e.I(dev.bytesTotal)
	dev.latency.EncodeState(e)
	dev.svcLatency.EncodeState(e)
}

// DecodeState restores a device serialized by EncodeState. Pending raises
// are re-packed from ring slot 0, which preserves FIFO order.
func (dev *Device) DecodeState(d *snapshot.Decoder, col *attr.Collector) {
	d.Tag('Q')
	bus.DecodeInitiatorPortState(d, dev.port, col)
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
	for id := range dev.byReqID {
		delete(dev.byReqID, id)
	}
	nid := d.N(maxInFlight)
	for i := 0; i < nid; i++ {
		dev.byReqID[d.U()] = struct{}{}
	}
	dev.inFlight = len(dev.byReqID)
	dev.raised = d.I()
	dev.serviced = d.I()
	dev.met = d.I()
	dev.missed = d.I()
	dev.issuedTotal = d.I()
	dev.completedTotal = d.I()
	dev.readsTotal = d.I()
	dev.writesTotal = d.I()
	dev.bytesTotal = d.I()
	dev.latency.DecodeState(d)
	dev.svcLatency.DecodeState(d)
}

// EncodeState serializes the heap allocator's mutable state: the owned port,
// the PRNG, the op state machine, the live-block table and the counters.
func (h *Allocator) EncodeState(e *snapshot.Encoder) {
	e.Tag('H')
	bus.EncodeInitiatorPortState(e, h.port)
	e.U(h.rng.State())
	e.I(h.opsDone)
	e.I(h.gapLeft)
	e.U(uint64(h.step))
	e.Bool(h.opFree)
	e.I(int64(h.opSize))
	e.U(h.opAddr)
	e.U(h.reqID)
	e.U(h.cursor)
	e.U(uint64(h.live))
	for i := 0; i < h.live; i++ {
		e.U(h.liveAddr[i])
		e.I(int64(h.liveSize[i]))
	}
	e.I(h.mallocs)
	e.I(h.frees)
	e.I(h.issuedTotal)
	e.I(h.completedTotal)
	e.I(h.readsTotal)
	e.I(h.writesTotal)
	e.I(h.bytesTotal)
	e.I(h.allocedBytes)
	h.latency.EncodeState(e)
}

// DecodeState restores an allocator serialized by EncodeState.
func (h *Allocator) DecodeState(d *snapshot.Decoder, col *attr.Collector) {
	d.Tag('H')
	bus.DecodeInitiatorPortState(d, h.port, col)
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
	h.reqID = d.U()
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
	h.issuedTotal = d.I()
	h.completedTotal = d.I()
	h.readsTotal = d.I()
	h.writesTotal = d.I()
	h.bytesTotal = d.I()
	h.allocedBytes = d.I()
	h.latency.DecodeState(d)
}
