// Package stbus models the STMicroelectronics STBus interconnect node: a
// crossbar with separate request and response physical channels, split
// transactions, message-granularity arbitration and per-initiator
// outstanding-transaction limits that depend on the protocol type.
//
// Protocol types (paper §3.1):
//
//   - Type 1: low-cost; one outstanding transaction per initiator
//     (each transaction blocks its initiator), no posted writes.
//   - Type 2: adds source/priority labelling, posted writes, split and
//     pipelined transactions; multiple outstanding, in-order delivery.
//   - Type 3: adds shaped packets and out-of-order transaction support;
//     multiple outstanding, out-of-order delivery allowed.
//
// The node is a sim.Clocked. Per cycle, each target's request channel can
// accept one packet (a read request costs one cycle; a write occupies the
// channel for its data beats) and each initiator's response channel can
// deliver one beat. Grant hand-over is free (asynchronous grant propagation,
// paper §4.1.2): a new transfer can start the cycle after the previous one
// ends with no idle cycle in between.
package stbus

import (
	"fmt"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/sim"
)

// Type selects the STBus protocol generation.
type Type int

// STBus protocol types.
const (
	Type1 Type = 1
	Type2 Type = 2
	Type3 Type = 3
)

// String returns "T1", "T2" or "T3".
func (t Type) String() string { return fmt.Sprintf("T%d", int(t)) }

// Config parameterizes an STBus node.
type Config struct {
	// Type is the protocol generation; it constrains the other fields.
	Type Type
	// MaxOutstanding limits in-flight transactions per initiator.
	// Type 1 forces 1. Default for T2/T3 is 8.
	MaxOutstanding int
	// MessageArbitration holds a target's grant on one initiator until it
	// completes a request marked MsgEnd, keeping memory-controller-
	// friendly sequences together (paper §3).
	MessageArbitration bool
	// BytesPerBeat is the node data width (e.g. 8 for 64-bit).
	BytesPerBeat int
}

// DefaultConfig returns a Type-3, 64-bit node with message arbitration, the
// configuration of the reference platform's central nodes.
func DefaultConfig() Config {
	return Config{Type: Type3, MaxOutstanding: 8, MessageArbitration: true, BytesPerBeat: 8}
}

func (c *Config) normalize() {
	if c.Type == 0 {
		c.Type = Type3
	}
	if c.Type == Type1 {
		c.MaxOutstanding = 1
	} else if c.MaxOutstanding <= 0 {
		c.MaxOutstanding = 8
	}
	if c.BytesPerBeat <= 0 {
		c.BytesPerBeat = 8
	}
}

// reqChannel is the per-target request-path state.
type reqChannel struct {
	// in-flight transfer on this target's request channel
	cur       *bus.Request
	beatsLeft int
	// message lock: initiator index holding the grant, -1 if free
	msgLock int
	// round-robin pointer
	rr int
	// stats
	busyCycles int64
}

// respChannel is the per-initiator response-path state.
type respChannel struct {
	rr         int
	busyCycles int64
}

// Node is an STBus crossbar node. It is gated (DESIGN.md §20): it sleeps
// after an edge on which it granted, transferred, delivered and stamped
// nothing, until a push or pop at one of its ports.
type Node struct {
	act  sim.Activity
	name string
	cfg  Config

	initiators []*bus.InitiatorPort
	targets    []*bus.TargetPort
	amap       *bus.AddrMap

	reqCh  []reqChannel
	respCh []respChannel

	outstanding []int
	// order[i] holds outstanding request IDs of initiator i in issue
	// order, for Type-2 in-order response enforcement.
	order [][]uint64
	// outTarget[i] is the target index of initiator i's outstanding
	// window (-1 when none). Type 2 keeps all in-flight transactions of
	// one initiator on a single target so that in-order delivery cannot
	// cross-block between targets (the standard in-order issue rule).
	outTarget []int

	// moved records that this edge's Eval granted, transferred, delivered
	// or stamped something; an edge that only counted sleeps (see Update).
	moved bool

	// attrCol/attrNow, when set, make the node stamp latency-attribution
	// phases on every request it arbitrates (see EnableAttribution).
	// attrHead caches, per initiator port, whether the current committed
	// head already carries a stamped record (see scanAttrHeads).
	attrCol  *attr.Collector
	attrNow  func() int64
	attrHead []bool

	cycles    int64
	forwarded int64
	beatsOut  int64
	// grantStalls counts cycles a target's request channel had a granted
	// initiator but could not take the transfer because the target's input
	// FIFO was full — the backpressure signal of the shared request path.
	grantStalls int64
}

// NewNode builds an empty node; attach initiators and targets before
// running. The address map decodes request addresses to target indices.
func NewNode(name string, cfg Config, amap *bus.AddrMap) *Node {
	cfg.normalize()
	return &Node{name: name, cfg: cfg, amap: amap}
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Config returns the normalized configuration.
func (n *Node) Config() Config { return n.cfg }

// AttachInitiator connects an initiator port and returns its index, which
// the node writes into Request.Src for response routing. The port is owned
// (Updated) by the initiator component, not by the node.
func (n *Node) AttachInitiator(p *bus.InitiatorPort) int {
	p.Req.PoppedBy(&n.act)
	p.Resp.PushedBy(&n.act)
	n.initiators = append(n.initiators, p)
	n.respCh = append(n.respCh, respChannel{})
	n.outstanding = append(n.outstanding, 0)
	n.order = append(n.order, nil)
	n.outTarget = append(n.outTarget, -1)
	return len(n.initiators) - 1
}

// AttachTarget connects a target port and returns its index. The port is
// owned (Updated) by the target component.
func (n *Node) AttachTarget(p *bus.TargetPort) int {
	p.Req.PushedBy(&n.act)
	p.Resp.PoppedBy(&n.act)
	n.targets = append(n.targets, p)
	n.reqCh = append(n.reqCh, reqChannel{msgLock: -1})
	return len(n.targets) - 1
}

// EnableAttribution makes the node stamp latency-attribution phase
// transitions: records are attached lazily at the head-of-queue scan
// (PhaseArbWait), marked PhaseBusXfer at grant and PhaseTargetQueue when the
// transfer lands in the target's input FIFO. now must return the node
// clock's current edge in absolute picoseconds (sim.Clock.NowPS). Call
// before the run starts; with attribution off the hot path keeps a single
// nil check.
func (n *Node) EnableAttribution(col *attr.Collector, now func() int64) {
	n.attrCol = col
	n.attrNow = now
}

// Eval advances request and response paths one node cycle, then applies
// the node's sleep rule (see Update).
func (n *Node) Eval() {
	n.cycles++
	n.moved = false
	if n.attrCol != nil {
		n.scanAttrHeads()
	}
	n.evalRequestPaths()
	n.evalResponsePaths()
	if !n.moved {
		n.act.Sleep()
	}
}

// scanAttrHeads attaches attribution records to requests newly arrived at an
// initiator-port head (entering arb_wait). The node is the sole consumer of
// these FIFOs, so attrHead caches "current head already stamped" per port:
// steady-state cost is one bool load per attached port and one inlined
// CanPop per empty port, with AttachAttr firing exactly once per
// head-arrival. Pop sites clear the flag.
func (n *Node) scanAttrHeads() {
	if len(n.attrHead) != len(n.initiators) {
		n.attrHead = make([]bool, len(n.initiators))
	}
	var now int64
	for i, ip := range n.initiators {
		if n.attrHead[i] || !ip.Req.CanPop() {
			continue
		}
		if now == 0 {
			now = n.attrNow()
		}
		bus.AttachAttr(n.attrCol, ip.Req.Peek(), now)
		n.attrHead[i] = true
		n.moved = true
	}
}

// Update does nothing: the node owns no FIFOs, and its sleep rule runs at
// the end of Eval: after an edge whose Eval moved nothing it sleeps
// until a push or pop at one of its ports pokes it, since with no transfer
// in progress the next Eval would see the same heads, windows and free
// space and only count again. A message lock needs no test: arbitration
// dropped it, or its holder is still eligible and its target full — a
// grant stall, which CreditIdle books with the round-robin pointer in
// closed form (DESIGN.md §20).
func (n *Node) Update() {}

// Activity returns the node's sleep state.
func (n *Node) Activity() *sim.Activity { return &n.act }

// CreditIdle books n skipped stalled edges: the node cycle counter, and on
// every channel whose grant waits for its full target FIFO a grant stall per
// edge plus the round-robin pointer's advance (a held message lock keeps the
// pointer still).
func (n *Node) CreditIdle(edges int64) {
	n.cycles += edges
	for t := range n.reqCh {
		ch := &n.reqCh[t]
		if n.targets[t].Req.CanPush() || n.grantee(t) < 0 {
			continue
		}
		n.grantStalls += edges
		if ch.msgLock < 0 {
			ch.rr = n.stallRR(t, ch.rr, edges)
		}
	}
}

func (n *Node) evalRequestPaths() {
	for t := range n.targets {
		ch := &n.reqCh[t]
		if ch.cur != nil {
			n.moved = true
			ch.busyCycles++
			ch.beatsLeft--
			if ch.beatsLeft == 0 {
				n.completeTransfer(t, ch)
			}
			continue
		}
		// arbitration: grant an initiator whose head request decodes to t
		init := n.arbitrate(t, ch)
		if init < 0 {
			continue
		}
		ip := n.initiators[init]
		req := ip.Req.Peek()
		if !n.targets[t].Req.CanPush() {
			n.grantStalls++
			continue // target input FIFO full: no grant this cycle
		}
		ip.Req.Pop()
		n.moved = true
		req.Src = init
		if n.attrCol != nil {
			// Attach here as well as at the head scan, so a request
			// granted the same cycle it became head still gets a record;
			// the popped port's next head needs a fresh stamp.
			now := n.attrNow()
			bus.AttachAttr(n.attrCol, req, now)
			req.Attr.Enter(attr.PhaseBusXfer, now)
			n.attrHead[init] = false
		}
		if n.cfg.Type == Type1 {
			req.Posted = false // Type 1 has no posted writes
		}
		ch.cur = req
		n.outTarget[init] = t
		ch.busyCycles++
		// A read occupies the request channel for one packet cycle; a
		// write carries its data beats on the request channel.
		cost := 1
		if req.Op == bus.OpWrite {
			cost = req.Beats
			if cost < 1 {
				cost = 1
			}
		}
		ch.beatsLeft = cost - 1
		n.outstanding[init]++
		n.order[init] = append(n.order[init], req.ID)
		if ch.beatsLeft == 0 {
			n.completeTransfer(t, ch)
		}
		if n.cfg.MessageArbitration {
			if req.MsgEnd {
				ch.msgLock = -1
			} else {
				ch.msgLock = init
			}
		}
	}
}

// completeTransfer pushes the fully transferred request into the target FIFO
// and releases the channel.
func (n *Node) completeTransfer(t int, ch *reqChannel) {
	req := ch.cur
	if rec := req.Attr; rec != nil && n.attrNow != nil {
		rec.Enter(attr.PhaseTargetQueue, n.attrNow())
	}
	n.targets[t].Req.Push(req)
	n.forwarded++
	ch.cur = nil
	if req.Op == bus.OpWrite && req.Posted && n.cfg.Type >= Type2 {
		// Posted write completes at acceptance; no response returns.
		n.retire(req.Src, req.ID)
	}
}

// eligible reports whether initiator i's committed head request may be
// granted target t this cycle. It has no side effects; arbitration, the
// closed-form pointer advance and the idle credit all decide through it.
func (n *Node) eligible(i, t int) bool {
	ip := n.initiators[i]
	if !ip.Req.CanPop() {
		return false
	}
	if n.amap.Decode(ip.Req.Peek().Addr) != t {
		return false
	}
	if n.outstanding[i] >= n.cfg.MaxOutstanding {
		return false
	}
	if n.cfg.Type == Type2 && n.outstanding[i] > 0 && n.outTarget[i] != t {
		return false // in-order issue rule: one target at a time
	}
	return true
}

// pick returns the first eligible initiator of highest priority (higher
// Prio wins) scanning round-robin from rr, or -1.
func (n *Node) pick(t, rr int) int {
	ni := len(n.initiators)
	best, bestPrio := -1, 0
	for k := 0; k < ni; k++ {
		i := bus.Wrap(rr+k, ni)
		if !n.eligible(i, t) {
			continue
		}
		p := n.initiators[i].Req.Peek().Prio
		if best < 0 || p > bestPrio {
			best, bestPrio = i, p
		}
	}
	return best
}

// grantee returns the initiator target t's arbiter grants this cycle, or
// -1, without side effects: the message-lock holder while it stays
// eligible, otherwise pick's choice.
func (n *Node) grantee(t int) int {
	ch := &n.reqCh[t]
	if ch.msgLock >= 0 && n.eligible(ch.msgLock, t) {
		return ch.msgLock
	}
	return n.pick(t, ch.rr)
}

// arbitrate returns the initiator index granted for target t, or -1,
// moving the round-robin pointer past the grantee.
func (n *Node) arbitrate(t int, ch *reqChannel) int {
	if ch.msgLock >= 0 {
		// Grant held for an in-progress message: serve the holder while
		// it keeps requests to this target queued back-to-back. Any
		// stall — empty queue, head decoding elsewhere, or the holder's
		// outstanding window exhausted — releases the lock so one
		// master's message cannot starve the channel (the grant-timeout
		// behaviour of real message arbiters).
		if n.eligible(ch.msgLock, t) {
			return ch.msgLock
		}
		ch.msgLock = -1
	}
	best := n.pick(t, ch.rr)
	if best >= 0 {
		ch.rr = bus.Wrap(best+1, len(n.initiators))
	}
	return best
}

// stallRR returns target t's round-robin pointer after k >= 1 consecutive
// arbitrations from rr that all stall on the full target FIFO. With the
// eligible set frozen, each picks the next highest-priority eligible
// initiator in cyclic order from the pointer and moves the pointer past it,
// so the k-th pick is the ((k-1) mod m)-th of the m top-priority eligible
// initiators counted from rr.
func (n *Node) stallRR(t, rr int, k int64) int {
	ni := len(n.initiators)
	top, m := 0, int64(0)
	for i := 0; i < ni; i++ {
		if !n.eligible(i, t) {
			continue
		}
		switch p := n.initiators[i].Req.Peek().Prio; {
		case m == 0 || p > top:
			top, m = p, 1
		case p == top:
			m++
		}
	}
	if m == 0 {
		return rr
	}
	q := (k - 1) % m
	for j := 0; ; j++ {
		i := bus.Wrap(rr+j, ni)
		if !n.eligible(i, t) || n.initiators[i].Req.Peek().Prio != top {
			continue
		}
		if q == 0 {
			return bus.Wrap(i+1, ni)
		}
		q--
	}
}

// evalResponsePaths delivers up to one beat to each initiator. Only a beat's
// source may take it, so the sweep visits just the initiators owning a
// committed target response head, in index order, re-reading the heads after
// each visit: a pop exposes the next beat to a later initiator, as a scan of
// every initiator would.
func (n *Node) evalResponsePaths() {
	for i := n.nextOwner(-1); i < len(n.initiators); i = n.nextOwner(i) {
		n.deliver(i)
	}
}

// nextOwner returns the lowest initiator index above i that owns a
// committed target response head, or the initiator count if none does.
func (n *Node) nextOwner(i int) int {
	next := len(n.initiators)
	for _, tp := range n.targets {
		if tp.Resp.CanPop() {
			if s := tp.Resp.Peek().Req.Src; s > i && s < next {
				next = s
			}
		}
	}
	return next
}

// deliver moves one beat to initiator i if it has room: the first target
// head, round-robin from i's pointer, that is i's and (Type 2) next in order.
func (n *Node) deliver(i int) {
	ch := &n.respCh[i]
	ip := n.initiators[i]
	if !ip.Resp.CanPush() {
		return
	}
	nt := len(n.targets)
	for k := 0; k < nt; k++ {
		t := bus.Wrap(ch.rr+k, nt)
		tp := n.targets[t]
		if !tp.Resp.CanPop() {
			continue
		}
		beat := tp.Resp.Peek()
		if beat.Req.Src != i || !n.inOrder(i, beat) {
			continue
		}
		tp.Resp.Pop()
		ip.Resp.Push(beat)
		n.moved = true
		ch.busyCycles++
		n.beatsOut++
		if beat.Last {
			n.retire(i, beat.Req.ID)
		}
		ch.rr = bus.Wrap(t+1, nt)
		return
	}
}

// inOrder reports whether beat may go to initiator i now: Type 2 delivers
// responses in issue order per initiator.
func (n *Node) inOrder(i int, beat bus.Beat) bool {
	return n.cfg.Type != Type2 || len(n.order[i]) == 0 || n.order[i][0] == beat.Req.ID
}

// retire removes a completed request from the outstanding accounting.
func (n *Node) retire(init int, id uint64) {
	if n.outstanding[init] > 0 {
		n.outstanding[init]--
	}
	if n.outstanding[init] == 0 {
		n.outTarget[init] = -1
	}
	ord := n.order[init]
	for j, v := range ord {
		if v == id {
			// Close the gap in place: the three-index append forces a
			// fresh backing array on every retire, which is pure
			// allocator churn on the response hot path.
			copy(ord[j:], ord[j+1:])
			n.order[init] = ord[:len(ord)-1]
			break
		}
	}
}

// Outstanding returns the in-flight count for initiator i (for tests).
func (n *Node) Outstanding(i int) int { return n.outstanding[i] }

// totalOutstanding sums the in-flight transactions across all initiators —
// the node's outstanding-occupancy gauge.
func (n *Node) totalOutstanding() int64 {
	var t int64
	for _, o := range n.outstanding {
		t += int64(o)
	}
	return t
}

// totalReqBusy sums the busy cycles of all request channels.
func (n *Node) totalReqBusy() int64 {
	var t int64
	for i := range n.reqCh {
		t += n.reqCh[i].busyCycles
	}
	return t
}

// RegisterMetrics registers the node's telemetry under "stbus.<name>.*" on
// the given clock domain: grant/beat counters, request-channel stall cycles,
// aggregate channel busy cycles, and the outstanding-occupancy gauge. All
// instruments are func-backed reads of counters the node already maintains,
// so the arbitration hot path is untouched.
func (n *Node) RegisterMetrics(m *metrics.Registry, clock string) {
	p := "stbus." + n.name + "."
	m.CounterFunc(p+"grants", func() int64 { return n.forwarded })
	m.CounterFunc(p+"beats_out", func() int64 { return n.beatsOut })
	m.CounterFunc(p+"grant_stall_cycles", func() int64 { return n.grantStalls })
	m.CounterFunc(p+"req_busy_cycles", n.totalReqBusy)
	m.GaugeFunc(p+"outstanding", clock, n.totalOutstanding)
}

// Stats reports node activity.
func (n *Node) Stats() Stats {
	s := Stats{
		Cycles:      n.cycles,
		Forwarded:   n.forwarded,
		BeatsOut:    n.beatsOut,
		GrantStalls: n.grantStalls,
	}
	for i := range n.reqCh {
		s.ReqChannelBusy = append(s.ReqChannelBusy, n.reqCh[i].busyCycles)
	}
	for i := range n.respCh {
		s.RespChannelBusy = append(s.RespChannelBusy, n.respCh[i].busyCycles)
	}
	return s
}

// Stats summarizes node activity over the run.
type Stats struct {
	Cycles          int64
	Forwarded       int64
	BeatsOut        int64
	GrantStalls     int64
	ReqChannelBusy  []int64 // per target
	RespChannelBusy []int64 // per initiator
}

// ReqUtilization returns the busy fraction of target t's request channel.
func (s Stats) ReqUtilization(t int) float64 {
	if s.Cycles == 0 || t >= len(s.ReqChannelBusy) {
		return 0
	}
	return float64(s.ReqChannelBusy[t]) / float64(s.Cycles)
}

// RespUtilization returns the busy fraction of initiator i's response
// channel.
func (s Stats) RespUtilization(i int) float64 {
	if s.Cycles == 0 || i >= len(s.RespChannelBusy) {
		return 0
	}
	return float64(s.RespChannelBusy[i]) / float64(s.Cycles)
}
