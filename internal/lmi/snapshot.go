package lmi

import (
	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/snapshot"
)

// EncodeState serializes the controller's mutable state (DESIGN.md §16): the
// owned target port, the optimization-engine state, the response streams,
// the SDRAM device, the Fig.6 monitor trackers and the lifetime counters.
func (c *Controller) EncodeState(e *snapshot.Encoder) {
	e.Tag('I')
	bus.EncodeTargetPortState(e, c.port)
	e.I(c.now)
	bus.EncodeReqRef(e, c.cur)
	e.U(uint64(c.phase))
	e.I(c.readyAt)
	e.I(int64(c.bypassRuns))
	e.I(c.lastRowKey)
	e.Bool(c.refreshing)
	e.U(uint64(len(c.streams)))
	for i := range c.streams {
		s := &c.streams[i]
		bus.EncodeReqRef(e, s.req)
		e.I(int64(s.beats))
		e.I(int64(s.emitted))
		e.I(s.nextAt)
		e.Bool(s.isAck)
	}
	c.dev.EncodeState(e)
	c.monitor.phases.EncodeState(e)
	c.monitor.empty.EncodeState(e)
	e.I(c.served)
	e.I(c.reads)
	e.I(c.writes)
	e.I(c.mergedRuns)
	e.I(c.lookaheadHit)
	c.latency.EncodeState(e)
	e.I(c.busy)
}

// DecodeState restores a controller serialized by EncodeState.
func (c *Controller) DecodeState(d *snapshot.Decoder, col *attr.Collector) {
	d.Tag('I')
	bus.DecodeTargetPortState(d, c.port, col)
	c.now = d.I()
	c.cur = bus.DecodeReqRef(d, col)
	ph := d.U()
	if ph > uint64(phaseAccess) {
		d.Corrupt("lmi %q serve phase %d out of range", c.name, ph)
		return
	}
	c.phase = servePhase(ph)
	c.readyAt = d.I()
	c.bypassRuns = int(d.I())
	c.lastRowKey = d.I()
	c.refreshing = d.Bool()
	ns := d.N(1 << 16)
	c.streams = c.streams[:0]
	for i := 0; i < ns; i++ {
		var s stream
		s.req = bus.DecodeReqRef(d, col)
		s.beats = int(d.I())
		s.emitted = int(d.I())
		s.nextAt = d.I()
		s.isAck = d.Bool()
		if d.Err() != nil {
			return
		}
		if s.req == nil {
			d.Corrupt("lmi %q response stream %d has no request", c.name, i)
			return
		}
		c.streams = append(c.streams, s)
	}
	c.dev.DecodeState(d)
	c.monitor.phases.DecodeState(d)
	c.monitor.empty.DecodeState(d)
	c.served = d.I()
	c.reads = d.I()
	c.writes = d.I()
	c.mergedRuns = d.I()
	c.lookaheadHit = d.I()
	c.latency.DecodeState(d)
	c.busy = d.I()
}
