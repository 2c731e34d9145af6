// Package bridge models the hybrid bridges of the paper's Fig.2: a target
// side attached to the source fabric, an initiator side attached to the
// destination fabric, and asynchronous FIFOs between them supporting
// different clock domains. One configurable component covers the whole
// family the paper instantiates — AHB-AHB, AXI-AXI, AHB-STBus, AXI-STBus,
// AHB-AXI, STBus-AHB, STBus-AXI lightweight bridges and the proprietary
// STBus GenConv converter.
//
// Common features (paper §3.2): write transactions are handled in a
// store-and-forward fashion; the lightweight configurations have a blocking
// target side in presence of read transactions; latency is tunable. The
// GenConv configuration additionally supports split (non-blocking)
// transactions with multiple outstanding requests, clock-domain crossing,
// data-width conversion and message preservation — combining conversions in
// one instance to minimize latency, as the real block does.
package bridge

import (
	"fmt"
	"math"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/stats"
)

// Config parameterizes a bridge instance.
type Config struct {
	// Split enables a non-blocking target side: new transactions are
	// accepted while earlier reads are still in flight (required for the
	// LMI input FIFO to ever hold more than one transaction, paper §4.2).
	// When false the bridge blocks on every read: no new transaction is
	// accepted until the read's response has been fully delivered.
	Split bool
	// MaxOutstanding bounds in-flight transactions in split mode.
	MaxOutstanding int
	// Latency is the extra pipeline latency, in destination-clock cycles,
	// added to each request crossing the bridge.
	Latency int
	// SrcBytesPerBeat / DstBytesPerBeat select data-width conversion
	// (e.g. 4 -> 8 for the 32-to-64-bit upsize in front of the ST220).
	SrcBytesPerBeat int
	DstBytesPerBeat int
	// ReqDepth / RespDepth size the internal asynchronous FIFOs.
	ReqDepth  int
	RespDepth int
	// SyncCycles is the clock-domain-crossing synchronizer latency in
	// reader cycles (0 when both sides share a clock).
	SyncCycles int
	// PortReqDepth / PortRespDepth size the bus-facing port FIFOs.
	PortReqDepth  int
	PortRespDepth int
	// PreserveMessages keeps MsgSeq/MsgEnd across the bridge so message-
	// based arbitration downstream still sees controller-friendly
	// sequences (GenConv); lightweight bridges terminate each message.
	PreserveMessages bool
	// InOrderUpstream forces ALL upstream responses into request-
	// acceptance order (not merely per-source order), buffering
	// out-of-order downstream responses in a reorder stash. Required
	// when the source fabric is non-split (AHB) or single-ID in-order:
	// such a bus consumes responses strictly in issue order, so a split
	// bridge feeding it out of order deadlocks its response path.
	InOrderUpstream bool
}

// Lightweight returns the paper's basic bridge configuration: blocking
// target side on reads, store-and-forward writes, no message preservation.
func Lightweight(latency int) Config {
	return Config{
		Split:           false,
		MaxOutstanding:  1,
		Latency:         latency,
		SrcBytesPerBeat: 8,
		DstBytesPerBeat: 8,
		ReqDepth:        2,
		RespDepth:       4,
		SyncCycles:      2,
		PortReqDepth:    2,
		PortRespDepth:   4,
	}
}

// GenConv returns the proprietary STBus converter configuration: split
// transactions, multiple outstanding, message preservation.
func GenConv(latency int) Config {
	return Config{
		Split:            true,
		MaxOutstanding:   8,
		Latency:          latency,
		SrcBytesPerBeat:  8,
		DstBytesPerBeat:  8,
		ReqDepth:         8,
		RespDepth:        16,
		SyncCycles:       2,
		PortReqDepth:     4,
		PortRespDepth:    8,
		PreserveMessages: true,
	}
}

func (c *Config) normalize() {
	if c.MaxOutstanding <= 0 {
		c.MaxOutstanding = 1
	}
	if c.SrcBytesPerBeat <= 0 {
		c.SrcBytesPerBeat = 8
	}
	if c.DstBytesPerBeat <= 0 {
		c.DstBytesPerBeat = 8
	}
	if c.ReqDepth <= 0 {
		c.ReqDepth = 2
	}
	if c.RespDepth <= 0 {
		c.RespDepth = 4
	}
	if c.PortReqDepth <= 0 {
		c.PortReqDepth = 2
	}
	if c.PortRespDepth <= 0 {
		c.PortRespDepth = 4
	}
	if c.Latency < 0 {
		c.Latency = 0
	}
	if c.SyncCycles < 0 {
		c.SyncCycles = 0
	}
}

// reqCtx tracks one transaction crossing the bridge.
type reqCtx struct {
	up      *bus.Request // upstream (source-fabric) request
	down    *bus.Request // downstream clone with converted width
	isRead  bool
	upBeats int // beats expected by the upstream initiator
	emitted int // upstream beats emitted so far
	collect int // downsize: downstream beats collected toward one upstream beat
	retired bool
	// upstream response-ordering state: src is the upstream source label;
	// ackPending marks a store-and-forward write whose upstream ack must
	// wait for older same-source transactions (in-order protocols such as
	// STBus Type 2 require per-source response order, so the bridge may
	// not ack a write ahead of an earlier read's data); ordered marks the
	// transaction as still queued in perSrc.
	src         int
	ackPending  bool
	finished    bool
	inQ         bool  // still queued in perSrc or globalOrder
	acceptCycle int64 // source-clock cycle of acceptance (residency stats)
	// stash buffers already-converted upstream beats of a transaction
	// whose turn has not come yet (InOrderUpstream reorder buffer);
	// complete marks that every upstream beat has been produced.
	stash    []bus.Beat
	complete bool
}

type delayedReq struct {
	ctx   *reqCtx
	ready int64 // source-clock cycle at which store-and-forward completes
}

type heldReq struct {
	ctx   *reqCtx
	ready int64 // destination-clock cycle after pipeline latency
}

// Bridge connects a source fabric (where its target side is attached) to a
// destination fabric (where its initiator side is attached). Register
// TargetSide on the source clock and InitiatorSide on the destination clock.
type Bridge struct {
	name string
	cfg  Config

	tport *bus.TargetPort
	iport *bus.InitiatorPort

	srcClk, dstClk *sim.Clock

	reqX  *sim.AsyncFifo[*reqCtx]
	respX *sim.AsyncFifo[bus.Beat]

	// target-side state
	readsInFlight int
	outstanding   int
	delayLine     []delayedReq
	emitQ         []bus.Beat
	byDown        map[*bus.Request]*reqCtx
	// perSrc holds unfinished transactions per upstream source label, in
	// acceptance order, to keep upstream responses per-source in-order.
	perSrc map[int][]*reqCtx
	// globalOrder holds every unfinished transaction in acceptance order
	// when InOrderUpstream is set.
	globalOrder []*reqCtx

	// initiator-side state
	held []heldReq

	// pool recycles downstream request clones (nil outside platform
	// builds); ctxFree recycles reqCtx records the same way.
	pool    *bus.RequestPool
	ctxFree []*reqCtx

	// attrOn enables latency-attribution phase stamping (EnableAttribution).
	attrOn bool

	// statistics
	accepted      int64
	blockedCycles int64
	reads, writes int64
	// residency measures source-clock cycles from acceptance to the last
	// upstream response of each transaction — the per-bridge share of
	// end-to-end latency.
	residency stats.Histogram

	// TargetSide must be registered on the source-fabric clock,
	// InitiatorSide on the destination-fabric clock. Each side is gated on
	// its own clock; the sides poke each other when they push into or pop
	// from a crossing FIFO, and the initiator side pokes the target side
	// before it lowers outstanding.
	TargetSide    sim.Clocked
	InitiatorSide sim.Clocked
	tside         targetSide
	iside         initiatorSide
}

// targetSide is the bridge half on the source clock.
type targetSide struct {
	act sim.Activity
	b   *Bridge
}

func (s *targetSide) Eval()                   { s.b.evalTarget() }
func (s *targetSide) Update()                 { s.b.updateTarget() }
func (s *targetSide) Activity() *sim.Activity { return &s.act }

// CreditIdle books skipped idle edges: a blocked cycle each while an
// upstream request waits on the blocking or outstanding rule.
func (s *targetSide) CreditIdle(n int64) {
	if s.b.tport.Req.CanPop() && s.b.acceptBlocked() {
		s.b.blockedCycles += n
	}
}

// initiatorSide is the bridge half on the destination clock.
type initiatorSide struct {
	act sim.Activity
	b   *Bridge
}

func (s *initiatorSide) Eval()                   { s.b.evalInitiator() }
func (s *initiatorSide) Update()                 { s.b.updateInitiator() }
func (s *initiatorSide) Activity() *sim.Activity { return &s.act }

// CreditIdle books skipped idle edges; an idle side counts nothing.
func (s *initiatorSide) CreditIdle(int64) {}

// New builds a bridge between the two clock domains.
func New(name string, cfg Config, srcClk, dstClk *sim.Clock) *Bridge {
	cfg.normalize()
	b := &Bridge{
		name:   name,
		cfg:    cfg,
		srcClk: srcClk,
		dstClk: dstClk,
		tport:  bus.NewTargetPort(name+".t", cfg.PortReqDepth, cfg.PortRespDepth),
		iport:  bus.NewInitiatorPort(name+".i", cfg.PortReqDepth, cfg.PortRespDepth),
		reqX:   sim.NewAsyncFifo[*reqCtx](name+".reqX", cfg.ReqDepth, cfg.SyncCycles, dstClk),
		respX:  sim.NewAsyncFifo[bus.Beat](name+".respX", cfg.RespDepth, cfg.SyncCycles, srcClk),
		byDown: map[*bus.Request]*reqCtx{},
		perSrc: map[int][]*reqCtx{},
	}
	b.tside.b, b.iside.b = b, b
	b.tport.OwnedBy(&b.tside.act)
	b.iport.OwnedBy(&b.iside.act)
	b.TargetSide = &b.tside
	b.InitiatorSide = &b.iside
	return b
}

// Name returns the bridge instance name.
func (b *Bridge) Name() string { return b.name }

// UseRequestPool makes the bridge mint downstream clones from (and retire
// them into) the given pool. Call before simulation starts.
func (b *Bridge) UseRequestPool(p *bus.RequestPool) { b.pool = p }

// RehomeDestination re-points the bridge's destination domain at a different
// clock. Sharded assembly calls it when the bridge's home shard is not the
// shard owning the real destination clock: the initiator side is then
// registered on a shard-local replica (same name and period, so cycle counts
// are identical), keeping every clock the bridge reads — including the
// request crossing FIFO's reader clock — inside its own shard. Call before
// simulation starts, on an idle bridge.
func (b *Bridge) RehomeDestination(clk *sim.Clock) {
	b.dstClk = clk
	b.reqX.SetReaderClock(clk)
}

// EnableAttribution makes the bridge stamp latency-attribution phases on
// crossing transactions: PhaseBridgeSF at acceptance (store-and-forward +
// conversion), PhaseBridgeCDC entering the clock-domain-crossing FIFO,
// PhaseBridgeIssue in the downstream latency line and PhaseInitQueue at
// downstream re-issue (the next fabric layer takes over from there). The
// record is shared between the upstream request and its downstream clone for
// reads and posted writes; a non-posted write's clone drops it — the bridge
// acks the write upstream at acceptance, so the upstream-visible latency is
// fully attributed and the clone's private downstream journey never touches
// a record the initiator may already have finished.
func (b *Bridge) EnableAttribution() { b.attrOn = true }

// TargetPort is the port to attach as a target on the source fabric.
func (b *Bridge) TargetPort() *bus.TargetPort { return b.tport }

// InitiatorPort is the port to attach as an initiator on the destination
// fabric.
func (b *Bridge) InitiatorPort() *bus.InitiatorPort { return b.iport }

// ---- target side (source clock domain) ----

func (b *Bridge) evalTarget() {
	b.drainEmitQ()
	b.convertResponses()
	b.acceptRequests()
	b.forwardMatured()
}

// updateTarget commits the source-side FIFOs and sleeps while nothing can
// move: no upstream beat can be emitted, no upstream request accepted (the
// port is empty, the blocking or outstanding rule holds it — a blocked
// cycle per edge — or the store-and-forward buffer is full), and no crossing
// entry pushed. It wakes when a crossing response matures (while the emit
// queue has room for it), when the oldest store-and-forward entry is ready
// (while the request crossing has room), or on a poke.
func (b *Bridge) updateTarget() {
	b.tport.Update()
	b.reqX.WriterUpdate()
	b.respX.ReaderUpdate()
	if len(b.emitQ) != 0 && b.tport.Resp.CanPush() {
		return // emits a beat at the next edge
	}
	if b.tport.Req.CanPop() && !b.acceptBlocked() && len(b.delayLine) < b.cfg.ReqDepth {
		return // accepts a request at the next edge
	}
	wake := int64(math.MaxInt64)
	if len(b.emitQ) < b.emitCap() {
		wake = b.respX.Matures()
	}
	if len(b.delayLine) > 0 && b.reqX.CanPush() {
		wake = min(wake, b.delayLine[0].ready)
	}
	b.tside.act.SleepUntil(wake)
}

// acceptBlocked reports whether the blocking or outstanding rule holds the
// next upstream request, which counts a blocked cycle per edge.
func (b *Bridge) acceptBlocked() bool {
	return (!b.cfg.Split && b.readsInFlight > 0) || b.outstanding >= b.cfg.MaxOutstanding
}

// emitCap bounds the emit queue, so conversion stalls under upstream
// backpressure.
func (b *Bridge) emitCap() int { return 4 + b.cfg.DstBytesPerBeat/b.cfg.SrcBytesPerBeat }

// drainEmitQ pushes at most one upstream response beat per cycle.
func (b *Bridge) drainEmitQ() {
	if len(b.emitQ) == 0 || !b.tport.Resp.CanPush() {
		return
	}
	beat := b.emitQ[0]
	n := copy(b.emitQ, b.emitQ[1:])
	b.emitQ[n] = bus.Beat{}
	b.emitQ = b.emitQ[:n]
	b.tport.Resp.Push(beat)
}

// convertResponses turns downstream beats into upstream beats, applying
// width conversion, at one downstream beat per cycle.
func (b *Bridge) convertResponses() {
	if len(b.emitQ) >= b.emitCap() || !b.respX.CanPop() {
		return
	}
	beat := b.respX.Pop()
	b.iside.act.Poke() // room in the response crossing
	ctx := b.byDown[beat.Req]
	if ctx == nil || !ctx.isRead {
		return // only read beats cross respX; anything else is stale
	}
	src, dst := b.cfg.SrcBytesPerBeat, b.cfg.DstBytesPerBeat
	switch {
	case dst >= src:
		// upsize bridge: one downstream beat carries dst/src upstream
		// beats.
		r := dst / src
		for k := 0; k < r && ctx.emitted < ctx.upBeats; k++ {
			b.emitUp(ctx)
		}
	default:
		// downsize bridge: collect src/dst downstream beats per
		// upstream beat.
		q := src / dst
		ctx.collect++
		if ctx.collect >= q || beat.Last {
			ctx.collect = 0
			if ctx.emitted < ctx.upBeats {
				b.emitUp(ctx)
			}
		}
	}
	if beat.Last {
		// flush any rounding remainder
		for ctx.emitted < ctx.upBeats {
			b.emitUp(ctx)
		}
		ctx.complete = true
		if b.cfg.InOrderUpstream {
			if len(b.globalOrder) > 0 && b.globalOrder[0] == ctx {
				b.drainGlobalOrder()
			}
		} else {
			b.finishRead(ctx)
		}
	}
}

// emitUp produces the next upstream beat of ctx, either directly into the
// emit queue or — when another transaction must respond first under
// InOrderUpstream — into the transaction's reorder stash.
func (b *Bridge) emitUp(ctx *reqCtx) {
	idx := ctx.emitted
	ctx.emitted++
	beat := bus.Beat{
		Req:  ctx.up,
		Idx:  idx,
		Last: ctx.emitted == ctx.upBeats,
	}
	if b.cfg.InOrderUpstream && (len(b.globalOrder) == 0 || b.globalOrder[0] != ctx) {
		ctx.stash = append(ctx.stash, beat)
		return
	}
	b.emitQ = append(b.emitQ, beat)
}

// drainGlobalOrder releases reorder-stashed responses in acceptance order.
func (b *Bridge) drainGlobalOrder() {
	done := 0
	for done < len(b.globalOrder) {
		head := b.globalOrder[done]
		if len(head.stash) > 0 {
			b.emitQ = append(b.emitQ, head.stash...)
			for i := range head.stash {
				head.stash[i] = bus.Beat{}
			}
			head.stash = head.stash[:0]
		}
		if head.ackPending {
			head.ackPending = false
			head.finished = true
			head.complete = true
			b.residency.Add(b.srcClk.Cycles() - head.acceptCycle)
			if rec := head.up.Attr; b.attrOn && rec != nil {
				rec.Enter(attr.PhaseRespReturn, b.srcClk.NowPS())
			}
			b.emitQ = append(b.emitQ, bus.Beat{Req: head.up, Idx: 0, Last: true})
			// The ack returns `up` to the initiator while this context may
			// outlive it in byDown until the downstream ack arrives (see
			// retireWrite).
			head.up = nil
		}
		if !head.complete {
			break
		}
		if head.isRead {
			b.finishRead(head)
		}
		head.inQ = false
		b.maybeRelease(head)
		done++
	}
	if done > 0 {
		// Shift the survivors down in place so the order queue's backing
		// array is reused, and clear the vacated tail slots.
		n := copy(b.globalOrder, b.globalOrder[done:])
		for i := n; i < len(b.globalOrder); i++ {
			b.globalOrder[i] = nil
		}
		b.globalOrder = b.globalOrder[:n]
	}
}

func (b *Bridge) finishRead(ctx *reqCtx) {
	if ctx.retired {
		return
	}
	ctx.retired = true
	ctx.finished = true
	b.residency.Add(b.srcClk.Cycles() - ctx.acceptCycle)
	if b.readsInFlight > 0 {
		b.readsInFlight--
	}
	if b.outstanding > 0 {
		b.outstanding--
	}
	delete(b.byDown, ctx.down)
	b.pool.Put(ctx.down)
	// Every upstream beat is already emitted (the initiator owns `up` again
	// and may recycle it) and the downstream clone just went back to the
	// pool; the context can linger in an ordering queue, so both pointers
	// must go with the ownership (see retireWrite).
	ctx.up = nil
	ctx.down = nil
	if !b.cfg.InOrderUpstream {
		b.drainSrcOrder(ctx.src)
	}
}

// drainSrcOrder pops finished transactions from the source's order queue
// and releases write acks that were deferred behind them.
func (b *Bridge) drainSrcOrder(src int) {
	q := b.perSrc[src]
	done := 0
	for done < len(q) {
		head := q[done]
		if head.ackPending {
			head.ackPending = false
			head.finished = true
			b.residency.Add(b.srcClk.Cycles() - head.acceptCycle)
			if rec := head.up.Attr; b.attrOn && rec != nil {
				rec.Enter(attr.PhaseRespReturn, b.srcClk.NowPS())
			}
			b.emitQ = append(b.emitQ, bus.Beat{Req: head.up, Idx: 0, Last: true})
			head.up = nil // see retireWrite: the initiator owns it again
		}
		if !head.finished {
			break
		}
		head.inQ = false
		b.maybeRelease(head)
		done++
	}
	if done > 0 {
		// Shift in place and keep the (possibly empty) entry so the
		// per-source queue's backing array survives across transactions.
		n := copy(q, q[done:])
		for i := n; i < len(q); i++ {
			q[i] = nil
		}
		b.perSrc[src] = q[:n]
	}
}

// acceptRequests pops at most one upstream request per cycle, respecting the
// blocking/split policy.
func (b *Bridge) acceptRequests() {
	if !b.tport.Req.CanPop() {
		return
	}
	if b.acceptBlocked() {
		// A blocking target side holds every request while a read is
		// in flight; a split one holds them at the outstanding limit.
		b.blockedCycles++
		return
	}
	if len(b.delayLine) >= b.cfg.ReqDepth {
		return // store-and-forward buffer full
	}
	up := b.tport.Req.Pop()
	if rec := up.Attr; b.attrOn && rec != nil {
		rec.Enter(attr.PhaseBridgeSF, b.srcClk.NowPS())
	}
	ctx := b.makeCtx(up)
	ctx.src = up.Src
	ctx.acceptCycle = b.srcClk.Cycles()
	b.accepted++
	b.outstanding++
	ready := b.srcClk.Cycles()
	if up.Op == bus.OpWrite {
		b.writes++
		// store-and-forward: the whole burst is buffered before any
		// forwarding starts.
		ready += int64(up.Beats)
		if !up.Posted {
			// The bridge takes ownership of the write and acks the
			// source fabric once the data is absorbed — but never
			// ahead of an older transaction's response whose order
			// the upstream bus relies on.
			switch {
			case b.cfg.InOrderUpstream && len(b.globalOrder) > 0:
				ctx.ackPending = true
				ctx.inQ = true
				b.globalOrder = append(b.globalOrder, ctx)
			case !b.cfg.InOrderUpstream && len(b.perSrc[ctx.src]) > 0:
				ctx.ackPending = true
				ctx.inQ = true
				b.perSrc[ctx.src] = append(b.perSrc[ctx.src], ctx)
			default:
				ctx.finished = true
				b.residency.Add(0)
				if rec := up.Attr; b.attrOn && rec != nil {
					rec.Enter(attr.PhaseRespReturn, b.srcClk.NowPS())
				}
				b.emitQ = append(b.emitQ, bus.Beat{Req: up, Idx: 0, Last: true})
				// The ack hands the upstream request back to the
				// initiator, which may recycle it while this context
				// still sits in the delay line — drop the pointer with
				// the obligation (see retireWrite).
				ctx.up = nil
			}
		}
	} else {
		b.reads++
		b.readsInFlight++
		ctx.inQ = true
		if b.cfg.InOrderUpstream {
			b.globalOrder = append(b.globalOrder, ctx)
		} else {
			b.perSrc[ctx.src] = append(b.perSrc[ctx.src], ctx)
		}
	}
	b.delayLine = append(b.delayLine, delayedReq{ctx: ctx, ready: ready})
}

// forwardMatured moves at most one matured store-and-forward entry per cycle
// into the crossing FIFO.
func (b *Bridge) forwardMatured() {
	if len(b.delayLine) == 0 {
		return
	}
	head := b.delayLine[0]
	if head.ready > b.srcClk.Cycles() || !b.reqX.CanPush() {
		return
	}
	n := copy(b.delayLine, b.delayLine[1:])
	b.delayLine[n] = delayedReq{}
	b.delayLine = b.delayLine[:n]
	if rec := head.ctx.down.Attr; b.attrOn && rec != nil {
		rec.Enter(attr.PhaseBridgeCDC, b.srcClk.NowPS())
	}
	b.reqX.Push(head.ctx)
	b.iside.act.Poke()
}

// makeCtx builds the downstream clone with width conversion applied.
func (b *Bridge) makeCtx(up *bus.Request) *reqCtx {
	src, dst := b.cfg.SrcBytesPerBeat, b.cfg.DstBytesPerBeat
	bytes := up.Beats * src
	downBeats := (bytes + dst - 1) / dst
	if downBeats < 1 {
		downBeats = 1
	}
	down := b.pool.Get()
	*down = bus.Request{
		ID:           up.ID,
		Origin:       up.Origin,
		Op:           up.Op,
		Addr:         up.Addr,
		Beats:        downBeats,
		BytesPerBeat: dst,
		Prio:         up.Prio,
		Posted:       up.Posted,
		IssueCycle:   up.IssueCycle,
		IssuePS:      up.IssuePS,
		MsgEnd:       true,
	}
	if b.cfg.PreserveMessages {
		down.MsgSeq = up.MsgSeq
		down.MsgEnd = up.MsgEnd
	}
	if b.attrOn && (up.Op == bus.OpRead || up.Posted) {
		// The attribution record follows the live copy: reads and posted
		// writes continue downstream (and finish at the initiator or the
		// consuming memory); a non-posted write is acked upstream by the
		// bridge, so its clone must not share a record the initiator may
		// finish first.
		down.Attr = up.Attr
	}
	ctx := b.getCtx()
	ctx.up = up
	ctx.down = down
	ctx.isRead = up.Op == bus.OpRead
	ctx.upBeats = up.Beats
	if !ctx.isRead {
		ctx.upBeats = 1 // a write yields at most one upstream ack beat
	}
	b.byDown[down] = ctx
	return ctx
}

// getCtx reuses a retired transaction record or allocates a fresh one.
func (b *Bridge) getCtx() *reqCtx {
	if n := len(b.ctxFree) - 1; n >= 0 {
		ctx := b.ctxFree[n]
		b.ctxFree[n] = nil
		b.ctxFree = b.ctxFree[:n]
		return ctx
	}
	return &reqCtx{}
}

// maybeRelease recycles a transaction record once nothing references it any
// more: it has retired downstream, met its upstream obligations, and left
// the ordering queues.
func (b *Bridge) maybeRelease(ctx *reqCtx) {
	if ctx == nil || ctx.inQ || !ctx.retired || !ctx.finished {
		return
	}
	stash := ctx.stash
	for i := range stash {
		stash[i] = bus.Beat{}
	}
	*ctx = reqCtx{stash: stash[:0]}
	b.ctxFree = append(b.ctxFree, ctx)
}

// ---- initiator side (destination clock domain) ----

func (b *Bridge) evalInitiator() {
	b.issueDownstream()
	b.collectDownstream()
}

// updateInitiator commits the destination-side FIFOs and sleeps while no
// downstream beat can be collected (none queued, or a read beat waits for
// room in the response crossing). It wakes when a crossing request matures
// (while the latency line has room for it), when the latency line's head is
// ready to issue (while the port has room), or on a poke.
func (b *Bridge) updateInitiator() {
	b.iport.Update()
	b.reqX.ReaderUpdate()
	b.respX.WriterUpdate()
	if b.iport.Resp.CanPop() && (b.iport.Resp.Peek().Req.Op == bus.OpWrite || b.respX.CanPush()) {
		return // collects a beat at the next edge
	}
	wake := int64(math.MaxInt64)
	if len(b.held) < b.cfg.ReqDepth {
		wake = b.reqX.Matures()
	}
	if len(b.held) > 0 && b.iport.Req.CanPush() {
		wake = min(wake, b.held[0].ready)
	}
	b.iside.act.SleepUntil(wake)
}

// issueDownstream applies the pipeline latency and pushes requests into the
// destination fabric.
func (b *Bridge) issueDownstream() {
	// move one matured crossing entry into the latency line
	if b.reqX.CanPop() && len(b.held) < b.cfg.ReqDepth {
		ctx := b.reqX.Pop()
		b.tside.act.Poke() // room in the request crossing
		if rec := ctx.down.Attr; b.attrOn && rec != nil {
			rec.Enter(attr.PhaseBridgeIssue, b.dstClk.NowPS())
		}
		b.held = append(b.held, heldReq{ctx: ctx, ready: b.dstClk.Cycles() + int64(b.cfg.Latency)})
	}
	if len(b.held) == 0 {
		return
	}
	head := b.held[0]
	if head.ready > b.dstClk.Cycles() || !b.iport.Req.CanPush() {
		return
	}
	n := copy(b.held, b.held[1:])
	b.held[n] = heldReq{}
	b.held = b.held[:n]
	if rec := head.ctx.down.Attr; b.attrOn && rec != nil {
		rec.Enter(attr.PhaseInitQueue, b.dstClk.NowPS())
	}
	b.iport.Req.Push(head.ctx.down)
	if head.ctx.down.Op == bus.OpWrite && head.ctx.down.Posted {
		// posted write: nothing will come back; retire now
		b.retireWrite(head.ctx, true)
	}
}

// collectDownstream pops response beats from the destination fabric: read
// beats cross back through respX; write acks are swallowed (the upstream ack
// was already emitted at store-and-forward acceptance).
func (b *Bridge) collectDownstream() {
	if !b.iport.Resp.CanPop() {
		return
	}
	beat := b.iport.Resp.Peek()
	if beat.Req.Op == bus.OpWrite {
		b.iport.Resp.Pop()
		if ctx := b.byDown[beat.Req]; ctx != nil {
			b.retireWrite(ctx, false)
		}
		return
	}
	if !b.respX.CanPush() {
		return
	}
	b.iport.Resp.Pop()
	b.respX.Push(beat)
	b.tside.act.Poke()
}

// retireWrite takes a write out of the bridge's accounting. postedForward
// marks the posted-at-issue path: the downstream copy stays live in the
// destination fabric (its eventual consumer reclaims it), while the upstream
// original has no response obligation left and is reclaimed here. For the
// acknowledged (non-posted) path the downstream copy just delivered its
// final beat and is reclaimed, while the upstream original still backs the
// initiator-facing ack and belongs to the initiator.
func (b *Bridge) retireWrite(ctx *reqCtx, postedForward bool) {
	if ctx.retired {
		return
	}
	ctx.retired = true
	b.tside.act.Poke() // the outstanding count drops
	if b.outstanding > 0 {
		b.outstanding--
	}
	delete(b.byDown, ctx.down)
	// Clear the pointers alongside the ownership handoff: a context can
	// outlive this retirement in an ordering queue, and a dangling pointer
	// to a recycled (or downstream-owned) request, while never dereferenced
	// again, would leak a dead object into a checkpoint (DESIGN.md §16).
	if postedForward {
		ctx.finished = true // a posted write has no upstream obligations
		b.pool.Put(ctx.up)
		ctx.up = nil
		ctx.down = nil // live downstream; its consumer owns it now
	} else {
		b.pool.Put(ctx.down)
		ctx.down = nil
	}
	b.maybeRelease(ctx)
}

// Outstanding returns the number of transactions currently inside the
// bridge (accepted but not retired).
func (b *Bridge) Outstanding() int { return b.outstanding }

// RegisterMetrics registers the bridge's telemetry under
// "bridge.<name>.*": acceptance/blocking counters, the residency latency
// histogram, and occupancy gauges for the store-and-forward delay line
// (posted-write depth), the clock-crossing request FIFO and the upstream
// emit queue. Gauges live on the source clock domain — the side the paper's
// cluster-pressure analysis observes. Func-backed: the bridge hot paths are
// untouched.
func (b *Bridge) RegisterMetrics(m *metrics.Registry) {
	p := "bridge." + b.name + "."
	clock := b.srcClk.Name()
	m.CounterFunc(p+"accepted", func() int64 { return b.accepted })
	m.CounterFunc(p+"reads", func() int64 { return b.reads })
	m.CounterFunc(p+"writes", func() int64 { return b.writes })
	m.CounterFunc(p+"blocked_cycles", func() int64 { return b.blockedCycles })
	m.Histogram(p+"residency", &b.residency)
	m.GaugeFunc(p+"outstanding", clock, func() int64 { return int64(b.outstanding) })
	m.GaugeFunc(p+"delay_line_depth", clock, func() int64 { return int64(len(b.delayLine)) })
	m.GaugeFunc(p+"reqx_depth", clock, func() int64 { return int64(b.reqX.Len()) })
	m.GaugeFunc(p+"emitq_depth", clock, func() int64 { return int64(len(b.emitQ)) })
}

// Stats reports bridge activity.
func (b *Bridge) Stats() Stats {
	return Stats{
		Accepted:      b.accepted,
		Reads:         b.reads,
		Writes:        b.writes,
		BlockedCycles: b.blockedCycles,
		MeanResidency: b.residency.Mean(),
		P90Residency:  b.residency.Quantile(0.9),
		MaxResidency:  b.residency.Max(),
	}
}

// Stats summarizes bridge activity.
type Stats struct {
	Accepted      int64
	Reads         int64
	Writes        int64
	BlockedCycles int64
	// Residency is the source-clock time from acceptance to the last
	// upstream response, i.e. this bridge's contribution (queueing +
	// downstream round trip) to end-to-end latency.
	MeanResidency float64
	P90Residency  int64
	MaxResidency  int64
}

func (s Stats) String() string {
	return fmt.Sprintf("accepted=%d (r=%d w=%d) blocked=%d", s.Accepted, s.Reads, s.Writes, s.BlockedCycles)
}
