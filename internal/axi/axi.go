// Package axi models an AMBA AXI interconnect as described in the paper
// (§3.2): point-to-point master/slave interface pairs with five independent
// mono-directional channels (read address, write address, read data, write
// data, write response), multiple outstanding transactions with in-order or
// out-of-order delivery selected by transaction ID, burst transactions with
// a single address, and burst overlapping (a master drives the next address
// as soon as the slave accepts the previous one).
//
// The model keeps the feature-level distinctions the paper reasons about:
//
//   - Reads and writes travel on separate channels, so a read address is
//     never blocked behind a long write-data transfer (unlike the STBus
//     shared request channel) — this is the "high number of physical
//     channels" advantage of §4.1.1.
//   - Arbitration is per-cycle per-channel ("fine granularity of arbiter
//     decisions").
//   - Each initiator can retire one read beat and one write response in the
//     same cycle (independent R and B channels).
package axi

import (
	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/sim"
)

// Config parameterizes an AXI interconnect.
type Config struct {
	// MaxOutstanding bounds in-flight transactions per master interface.
	MaxOutstanding int
	// BytesPerBeat is the data width in bytes.
	BytesPerBeat int
	// InOrder forces in-order response delivery per master (single
	// transaction ID); the default allows out-of-order completion.
	InOrder bool
	// RegisterStages inserts pipeline registers on every channel for
	// timing closure, transparent to the protocol (paper §3.2): each
	// request and each response beat is delayed by this many extra
	// cycles without affecting ordering or throughput.
	RegisterStages int
}

// DefaultConfig returns a 64-bit out-of-order interconnect with an
// 8-transaction window.
func DefaultConfig() Config { return Config{MaxOutstanding: 8, BytesPerBeat: 8} }

// pipedReq is a request in a register-stage pipeline.
type pipedReq struct {
	req *bus.Request
	at  int64
}

// pipedBeat is a response beat in a register-stage pipeline.
type pipedBeat struct {
	beat bus.Beat
	at   int64
}

// perTarget is the request-side state of one slave interface.
type perTarget struct {
	// write channel: in-flight write data transfer (AW accepted, W beats
	// streaming)
	wCur       *bus.Request
	wBeatsLeft int
	arRR       int
	awRR       int
	busyAR     int64
	busyW      int64
	// reqPipe holds requests traversing the register stages toward the
	// slave.
	reqPipe []pipedReq
}

// perInitiator is the response-side state of one master interface.
type perInitiator struct {
	rRR   int
	bRR   int
	busyR int64
	busyB int64
	outst int
	// In-order delivery is per channel: the R and B channels are
	// independent in AXI, so reads are ordered among reads and writes
	// among writes (single-ID semantics per direction).
	oldestR []uint64
	oldestW []uint64
	// outTarget restricts an in-order master's outstanding window to a
	// single slave, preventing cross-target head-of-line deadlock (the
	// standard single-ID issue rule).
	outTarget int
	// respPipeR/respPipeB hold beats traversing the register stages on
	// the R and B channels.
	respPipeR []pipedBeat
	respPipeB []pipedBeat
}

// Interconnect is an AXI fabric. It is gated (DESIGN.md §20): it sleeps
// after an edge on which it moved and stamped nothing, with no write
// streaming and no register stage occupied, until a push or pop at one of
// its ports.
type Interconnect struct {
	act  sim.Activity
	name string
	cfg  Config

	initiators []*bus.InitiatorPort
	targets    []*bus.TargetPort
	amap       *bus.AddrMap

	ts []perTarget
	is []perInitiator

	// moved records that the current edge's Eval changed anything but a
	// counter: a grant, a W beat, a delivery, a forwarded response beat,
	// a drained register stage or an attribution stamp.
	moved bool

	// attrCol/attrNow, when set, stamp latency-attribution phases on every
	// request crossing the fabric (see EnableAttribution). attrHead
	// caches, per initiator port, whether the current committed head
	// already carries a stamped record (cleared at issue).
	attrCol  *attr.Collector
	attrNow  func() int64
	attrHead []bool

	cycles    int64
	forwarded int64
	beatsOut  int64
	// wStalls counts cycles a completed write transfer could not be handed
	// to its slave because the slave FIFO was full (WREADY backpressure).
	wStalls int64
}

// New builds an empty AXI interconnect.
func New(name string, cfg Config, amap *bus.AddrMap) *Interconnect {
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 8
	}
	if cfg.BytesPerBeat <= 0 {
		cfg.BytesPerBeat = 8
	}
	return &Interconnect{name: name, cfg: cfg, amap: amap}
}

// Name returns the fabric name.
func (x *Interconnect) Name() string { return x.name }

// AttachInitiator connects a master interface; see bus.Fabric. The
// interconnect pops the port's requests and pushes its responses.
func (x *Interconnect) AttachInitiator(p *bus.InitiatorPort) int {
	p.Req.PoppedBy(&x.act)
	p.Resp.PushedBy(&x.act)
	x.initiators = append(x.initiators, p)
	x.is = append(x.is, perInitiator{outTarget: -1})
	return len(x.initiators) - 1
}

// AttachTarget connects a slave interface; see bus.Fabric. The
// interconnect pushes the port's requests and pops its responses.
func (x *Interconnect) AttachTarget(p *bus.TargetPort) int {
	p.Req.PushedBy(&x.act)
	p.Resp.PoppedBy(&x.act)
	x.targets = append(x.targets, p)
	x.ts = append(x.ts, perTarget{})
	return len(x.targets) - 1
}

// EnableAttribution makes the interconnect stamp latency-attribution
// phases: records attach at the head-of-queue scan (PhaseArbWait), mark
// PhaseBusXfer at the AR/AW handshake (covering W-beat streaming and
// register-stage traversal) and PhaseTargetQueue when the request lands in
// the slave's input FIFO. now must return the fabric clock's current edge in
// absolute picoseconds (sim.Clock.NowPS).
func (x *Interconnect) EnableAttribution(col *attr.Collector, now func() int64) {
	x.attrCol = col
	x.attrNow = now
}

// Eval advances all five channel groups one cycle, then applies the
// interconnect's sleep rule (see Update).
func (x *Interconnect) Eval() {
	x.cycles++
	x.moved = false
	if x.attrCol != nil {
		// Attach records to requests newly arrived at a port head
		// (entering arb_wait). The fabric is the sole consumer of these
		// FIFOs, so attrHead caches "current head already stamped" per
		// port: one bool load per attached port and one inlined CanPop
		// per empty port per cycle; issue() clears the flag on pop.
		if len(x.attrHead) != len(x.initiators) {
			x.attrHead = make([]bool, len(x.initiators))
		}
		var now int64
		for i, ip := range x.initiators {
			if x.attrHead[i] || !ip.Req.CanPop() {
				continue
			}
			if now == 0 {
				now = x.attrNow()
			}
			bus.AttachAttr(x.attrCol, ip.Req.Peek(), now)
			x.attrHead[i] = true
			x.moved = true
		}
	}
	if x.cfg.RegisterStages > 0 {
		x.drainPipes()
	}
	for t := range x.targets {
		x.evalWriteChannels(t)
		x.evalReadAddress(t)
	}
	x.evalResponses()
	if !x.moved && x.pipesEmpty() {
		x.act.Sleep()
	}
}

// drainPipes moves matured register-stage entries into the ports, one per
// pipe per cycle.
func (x *Interconnect) drainPipes() {
	// The pipes shift in place instead of re-slicing the front off, so
	// their backing arrays are reused for the lifetime of the fabric.
	for t := range x.ts {
		pt := &x.ts[t]
		if len(pt.reqPipe) > 0 && pt.reqPipe[0].at <= x.cycles && x.targets[t].Req.CanPush() {
			if rec := pt.reqPipe[0].req.Attr; rec != nil && x.attrNow != nil {
				rec.Enter(attr.PhaseTargetQueue, x.attrNow())
			}
			x.targets[t].Req.Push(pt.reqPipe[0].req)
			x.moved = true
			n := copy(pt.reqPipe, pt.reqPipe[1:])
			pt.reqPipe[n] = pipedReq{}
			pt.reqPipe = pt.reqPipe[:n]
		}
	}
	for i := range x.is {
		pi := &x.is[i]
		ip := x.initiators[i]
		if len(pi.respPipeR) > 0 && pi.respPipeR[0].at <= x.cycles && ip.Resp.CanPush() {
			ip.Resp.Push(pi.respPipeR[0].beat)
			x.moved = true
			n := copy(pi.respPipeR, pi.respPipeR[1:])
			pi.respPipeR[n] = pipedBeat{}
			pi.respPipeR = pi.respPipeR[:n]
		}
		if len(pi.respPipeB) > 0 && pi.respPipeB[0].at <= x.cycles && ip.Resp.CanPush() {
			ip.Resp.Push(pi.respPipeB[0].beat)
			x.moved = true
			n := copy(pi.respPipeB, pi.respPipeB[1:])
			pi.respPipeB[n] = pipedBeat{}
			pi.respPipeB = pi.respPipeB[:n]
		}
	}
}

// canDeliverReq gates a grant on downstream acceptance (port or pipe).
func (x *Interconnect) canDeliverReq(t int) bool {
	if x.cfg.RegisterStages == 0 {
		return x.targets[t].Req.CanPush()
	}
	return len(x.ts[t].reqPipe) < x.cfg.RegisterStages+2
}

// deliverReq hands a request toward the slave through the register stages.
func (x *Interconnect) deliverReq(t int, req *bus.Request) {
	if x.cfg.RegisterStages == 0 {
		if rec := req.Attr; rec != nil && x.attrNow != nil {
			rec.Enter(attr.PhaseTargetQueue, x.attrNow())
		}
		x.targets[t].Req.Push(req)
		return
	}
	x.ts[t].reqPipe = append(x.ts[t].reqPipe, pipedReq{req: req, at: x.cycles + int64(x.cfg.RegisterStages)})
}

// Update does nothing: the interconnect owns no FIFOs, and its sleep rule
// runs at the end of Eval: after an edge whose Eval only counted it
// sleeps until a push or pop at one of its ports, since with no write
// streaming beats (a stream moves every edge) and every register stage
// empty (a piped entry matures with time) the next Eval would see the same
// heads, windows and free space, and so would only count again — no head
// grantable (absent, undecodable, its slave FIFO full, or held by the
// outstanding or in-order window), no response head able to move to its
// initiator, and under attribution every visible head already stamped. A
// push or pop by the other side earlier in the edge pokes the
// interconnect, which refuses the sleep; one later in the edge wakes it
// with nothing booked.
func (x *Interconnect) Update() {}

// pipesEmpty reports whether no register stage holds a request or a beat.
func (x *Interconnect) pipesEmpty() bool {
	if x.cfg.RegisterStages == 0 {
		return true
	}
	for t := range x.ts {
		if len(x.ts[t].reqPipe) > 0 {
			return false
		}
	}
	for i := range x.is {
		if len(x.is[i].respPipeR) > 0 || len(x.is[i].respPipeB) > 0 {
			return false
		}
	}
	return true
}

// Activity returns the interconnect's sleep state.
func (x *Interconnect) Activity() *sim.Activity { return &x.act }

// CreditIdle books n skipped edges: the cycle counter, and a W stall per
// edge for every slave whose completed write waits on its full FIFO.
func (x *Interconnect) CreditIdle(n int64) {
	x.cycles += n
	for t := range x.ts {
		if pt := &x.ts[t]; pt.wCur != nil && pt.wBeatsLeft <= 0 && !x.canDeliverReq(t) {
			x.wStalls += n
		}
	}
}

// headFor returns the index of initiator i's head request if it decodes to
// target t, matches op, and i has window space; otherwise nil.
func (x *Interconnect) headFor(i, t int, op bus.Op) *bus.Request {
	ip := x.initiators[i]
	if !ip.Req.CanPop() {
		return nil
	}
	req := ip.Req.Peek()
	if req.Op != op || x.amap.Decode(req.Addr) != t {
		return nil
	}
	if x.is[i].outst >= x.cfg.MaxOutstanding {
		return nil
	}
	if x.cfg.InOrder && x.is[i].outst > 0 && x.is[i].outTarget != t {
		return nil // single-ID issue rule: one slave at a time
	}
	return req
}

// evalWriteChannels advances target t's AW+W channel pair: one write address
// accepted per cycle when idle, then the data beats stream on W.
func (x *Interconnect) evalWriteChannels(t int) {
	pt := &x.ts[t]
	if pt.wCur != nil {
		if pt.wBeatsLeft > 0 {
			pt.busyW++
			pt.wBeatsLeft--
			x.moved = true
		}
		if pt.wBeatsLeft <= 0 {
			// Hand the completed write to the slave; if reads filled
			// the slave FIFO since the AW handshake, stall W until a
			// slot frees (WREADY backpressure).
			if !x.canDeliverReq(t) {
				x.wStalls++
				return
			}
			x.deliverReq(t, pt.wCur)
			x.moved = true
			x.forwarded++
			if pt.wCur.Posted {
				x.retire(pt.wCur.Src, pt.wCur.ID)
			}
			pt.wCur = nil
		}
		return
	}
	if !x.canDeliverReq(t) {
		return
	}
	ni := len(x.initiators)
	for k := 0; k < ni; k++ {
		i := bus.Wrap(pt.awRR+k, ni)
		req := x.headFor(i, t, bus.OpWrite)
		if req == nil {
			continue
		}
		x.initiators[i].Req.Pop()
		req.Src = i
		x.issue(i, req)
		pt.wCur = req
		pt.wBeatsLeft = req.Beats
		if pt.wBeatsLeft < 1 {
			pt.wBeatsLeft = 1
		}
		pt.busyW++
		pt.wBeatsLeft--
		if pt.wBeatsLeft <= 0 {
			x.deliverReq(t, req)
			x.forwarded++
			if req.Posted {
				x.retire(i, req.ID)
			}
			pt.wCur = nil
		}
		pt.awRR = bus.Wrap(i+1, ni)
		return
	}
}

// evalReadAddress accepts one read address per cycle on target t's AR
// channel — reads are never stalled behind write data.
func (x *Interconnect) evalReadAddress(t int) {
	pt := &x.ts[t]
	if !x.canDeliverReq(t) {
		return
	}
	ni := len(x.initiators)
	for k := 0; k < ni; k++ {
		i := bus.Wrap(pt.arRR+k, ni)
		req := x.headFor(i, t, bus.OpRead)
		if req == nil {
			continue
		}
		x.initiators[i].Req.Pop()
		req.Src = i
		x.issue(i, req)
		x.deliverReq(t, req)
		x.forwarded++
		pt.busyAR++
		pt.arRR = bus.Wrap(i+1, ni)
		return
	}
}

// evalResponses forwards up to one read beat (R channel) and one write
// response (B channel) to each initiator. Only a beat's source may take it,
// so the sweep visits just the initiators owning a committed target
// response head, in index order. A pop exposes the target's next beat,
// which a later initiator in the sweep may take — as it would if every
// initiator were scanned in turn.
func (x *Interconnect) evalResponses() {
	for i := x.nextOwner(-1); i >= 0; i = x.nextOwner(i) {
		x.forward(i, bus.OpRead)
		x.forward(i, bus.OpWrite)
	}
}

// nextOwner returns the lowest initiator index above i that owns a
// committed target response head, or -1.
func (x *Interconnect) nextOwner(i int) int {
	next := -1
	for _, tp := range x.targets {
		if !tp.Resp.CanPop() {
			continue
		}
		if s := tp.Resp.Peek().Req.Src; s > i && (next < 0 || s < next) {
			next = s
		}
	}
	if next >= len(x.initiators) {
		return -1
	}
	return next
}

// forward moves one response beat of kind op to initiator i: the first
// eligible target head round-robin from the channel's pointer — i's beat,
// next in order under InOrder, with room in the port or register stage.
func (x *Interconnect) forward(i int, op bus.Op) {
	pi := &x.is[i]
	ip := x.initiators[i]
	rr, busy, pipe, ord := &pi.rRR, &pi.busyR, &pi.respPipeR, pi.oldestR
	if op == bus.OpWrite {
		rr, busy, pipe, ord = &pi.bRR, &pi.busyB, &pi.respPipeB, pi.oldestW
	}
	if x.cfg.RegisterStages == 0 {
		if !ip.Resp.CanPush() {
			return
		}
	} else if len(*pipe) >= x.cfg.RegisterStages+2 {
		return
	}
	nt := len(x.targets)
	for k := 0; k < nt; k++ {
		t := bus.Wrap(*rr+k, nt)
		tp := x.targets[t]
		if !tp.Resp.CanPop() {
			continue
		}
		beat := tp.Resp.Peek()
		if beat.Req.Src != i || beat.Req.Op != op {
			continue
		}
		if x.cfg.InOrder && len(ord) > 0 && ord[0] != beat.Req.ID {
			continue
		}
		tp.Resp.Pop()
		if x.cfg.RegisterStages == 0 {
			ip.Resp.Push(beat)
		} else {
			*pipe = append(*pipe, pipedBeat{beat: beat, at: x.cycles + int64(x.cfg.RegisterStages)})
		}
		x.moved = true
		*busy++
		x.beatsOut++
		if beat.Last {
			x.retire(i, beat.Req.ID)
		}
		*rr = bus.Wrap(t+1, nt)
		return
	}
}

func (x *Interconnect) issue(i int, req *bus.Request) {
	x.moved = true
	if x.attrCol != nil {
		// Attach here as well as at the head scan: the AR and AW channels
		// can both pop from one port in a single cycle, and the second
		// request was never at the head when the scan ran. The popped
		// port's next head needs a fresh stamp.
		now := x.attrNow()
		bus.AttachAttr(x.attrCol, req, now)
		req.Attr.Enter(attr.PhaseBusXfer, now)
		if i < len(x.attrHead) {
			x.attrHead[i] = false
		}
	}
	pi := &x.is[i]
	pi.outst++
	pi.outTarget = x.amap.Decode(req.Addr)
	if req.Op == bus.OpRead {
		pi.oldestR = append(pi.oldestR, req.ID)
	} else {
		pi.oldestW = append(pi.oldestW, req.ID)
	}
}

func (x *Interconnect) retire(i int, id uint64) {
	pi := &x.is[i]
	if pi.outst > 0 {
		pi.outst--
	}
	if pi.outst == 0 {
		pi.outTarget = -1
	}
	remove := func(ord []uint64) []uint64 {
		for j, v := range ord {
			if v == id {
				copy(ord[j:], ord[j+1:])
				return ord[:len(ord)-1]
			}
		}
		return ord
	}
	pi.oldestR = remove(pi.oldestR)
	pi.oldestW = remove(pi.oldestW)
}

// Outstanding returns initiator i's in-flight transaction count.
func (x *Interconnect) Outstanding(i int) int { return x.is[i].outst }

// totalOutstanding sums in-flight transactions across all master interfaces.
func (x *Interconnect) totalOutstanding() int64 {
	var t int64
	for i := range x.is {
		t += int64(x.is[i].outst)
	}
	return t
}

// RegisterMetrics registers the interconnect's telemetry under
// "axi.<name>.*" on the given clock domain: grants (forwarded requests),
// response beats, write-channel backpressure stalls, aggregate per-channel
// busy cycles, and the outstanding-occupancy gauge. Func-backed: the
// channel hot paths are untouched.
func (x *Interconnect) RegisterMetrics(m *metrics.Registry, clock string) {
	p := "axi." + x.name + "."
	m.CounterFunc(p+"grants", func() int64 { return x.forwarded })
	m.CounterFunc(p+"beats_out", func() int64 { return x.beatsOut })
	m.CounterFunc(p+"w_stall_cycles", func() int64 { return x.wStalls })
	m.CounterFunc(p+"ar_busy_cycles", func() int64 {
		var t int64
		for i := range x.ts {
			t += x.ts[i].busyAR
		}
		return t
	})
	m.CounterFunc(p+"w_busy_cycles", func() int64 {
		var t int64
		for i := range x.ts {
			t += x.ts[i].busyW
		}
		return t
	})
	m.CounterFunc(p+"r_busy_cycles", func() int64 {
		var t int64
		for i := range x.is {
			t += x.is[i].busyR
		}
		return t
	})
	m.GaugeFunc(p+"outstanding", clock, x.totalOutstanding)
}

// Stats reports interconnect activity.
func (x *Interconnect) Stats() Stats {
	s := Stats{Cycles: x.cycles, Forwarded: x.forwarded, BeatsOut: x.beatsOut, WStalls: x.wStalls}
	for i := range x.ts {
		s.WChannelBusy = append(s.WChannelBusy, x.ts[i].busyW)
		s.ARChannelBusy = append(s.ARChannelBusy, x.ts[i].busyAR)
	}
	for i := range x.is {
		s.RChannelBusy = append(s.RChannelBusy, x.is[i].busyR)
		s.BChannelBusy = append(s.BChannelBusy, x.is[i].busyB)
	}
	return s
}

// Stats summarizes AXI activity per channel group.
type Stats struct {
	Cycles        int64
	Forwarded     int64
	BeatsOut      int64
	WStalls       int64
	WChannelBusy  []int64 // per target
	ARChannelBusy []int64 // per target
	RChannelBusy  []int64 // per initiator
	BChannelBusy  []int64 // per initiator
}

// RUtilization returns the busy fraction of initiator i's read-data channel.
func (s Stats) RUtilization(i int) float64 {
	if s.Cycles == 0 || i >= len(s.RChannelBusy) {
		return 0
	}
	return float64(s.RChannelBusy[i]) / float64(s.Cycles)
}
