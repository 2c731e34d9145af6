package stbus

import (
	"math"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/snapshot"
)

// EncodeState serializes the node's mutable state (DESIGN.md §16): per-target
// request-channel occupancy, per-initiator response-path pointers, the
// outstanding-transaction accounting and the activity counters. Ports belong
// to the attached components and are serialized by their owners.
func (n *Node) EncodeState(e *snapshot.Encoder) {
	e.Tag('S')
	e.U(uint64(len(n.reqCh)))
	for t := range n.reqCh {
		ch := &n.reqCh[t]
		bus.EncodeReqRef(e, ch.cur)
		e.I(int64(ch.beatsLeft))
		e.I(int64(ch.msgLock))
		e.I(int64(ch.rr))
		e.I(ch.busyCycles)
	}
	e.U(uint64(len(n.respCh)))
	for i := range n.respCh {
		e.I(int64(n.respCh[i].rr))
		e.I(n.respCh[i].busyCycles)
	}
	for i := range n.outstanding {
		e.I(int64(n.outstanding[i]))
		e.I(int64(n.outTarget[i]))
		e.U(uint64(len(n.order[i])))
		for _, id := range n.order[i] {
			e.U(id)
		}
	}
	// attrHead is sized lazily on the first attributed Eval; entries are
	// meaningful whenever attribution ran at all.
	e.U(uint64(len(n.attrHead)))
	for _, h := range n.attrHead {
		e.Bool(h)
	}
	e.I(n.cycles)
	e.I(n.forwarded)
	e.I(n.beatsOut)
	e.I(n.grantStalls)
}

// DecodeState restores a node serialized by EncodeState. The receiver must
// have the same attached initiator/target counts (rebuilt from the spec);
// every pointer, lock, window and in-flight request source it restores must
// index them.
func (n *Node) DecodeState(d *snapshot.Decoder, col *attr.Collector) {
	d.Tag('S')
	ni, nt := len(n.initiators), len(n.targets)
	if c := d.N(1 << 16); d.Err() == nil && c != nt {
		d.Corrupt("stbus %q target count %d does not match platform's %d", n.name, c, nt)
	}
	if d.Err() != nil {
		return
	}
	for t := range n.reqCh {
		ch := &n.reqCh[t]
		ch.cur = bus.DecodeInFlight(d, col, ni)
		ch.beatsLeft = d.Int(0, math.MaxInt, "stbus %q target %d beats left", n.name, t)
		ch.msgLock = d.Int(-1, ni-1, "stbus %q target %d message lock", n.name, t)
		ch.rr = d.Int(0, max(ni-1, 0), "stbus %q target %d round-robin pointer", n.name, t)
		ch.busyCycles = d.I()
	}
	if c := d.N(1 << 16); d.Err() == nil && c != ni {
		d.Corrupt("stbus %q initiator count %d does not match platform's %d", n.name, c, ni)
	}
	if d.Err() != nil {
		return
	}
	for i := range n.respCh {
		n.respCh[i].rr = d.Int(0, max(nt-1, 0), "stbus %q initiator %d response pointer", n.name, i)
		n.respCh[i].busyCycles = d.I()
	}
	for i := range n.outstanding {
		n.outstanding[i] = d.Int(0, n.cfg.MaxOutstanding, "stbus %q initiator %d outstanding", n.name, i)
		n.outTarget[i] = d.Int(-1, nt-1, "stbus %q initiator %d window target", n.name, i)
		cnt := d.N(1 << 16)
		n.order[i] = n.order[i][:0]
		for j := 0; j < cnt; j++ {
			n.order[i] = append(n.order[i], d.U())
		}
		if d.Err() != nil {
			return
		}
	}
	nh := d.N(1 << 16)
	if d.Err() != nil {
		return
	}
	if nh != 0 && nh != len(n.initiators) {
		d.Corrupt("stbus %q attr head cache size %d does not match %d initiators", n.name, nh, len(n.initiators))
		return
	}
	n.attrHead = n.attrHead[:0]
	for i := 0; i < nh; i++ {
		n.attrHead = append(n.attrHead, d.Bool())
	}
	n.cycles = d.I()
	n.forwarded = d.I()
	n.beatsOut = d.I()
	n.grantStalls = d.I()
}
