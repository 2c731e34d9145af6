// Package ahb models an AMBA AHB shared-bus layer as described in the paper
// (§3.2): two unidirectional data links of which only one can be active at a
// time, transaction pipelining (split address/data ownership) but no
// multiple outstanding transactions, burst support, implicit non-posted
// writes, and no split transactions — target wait states turn into idle bus
// cycles that stall every other master.
//
// Grant hand-over is free: AHB re-arbitrates while the penultimate beat of a
// burst is on the bus (HGRANT changes early), so back-to-back bursts incur
// no arbitration bubble — the behaviour §4.1.2 calls "the best operating
// condition for AMBA AHB".
package ahb

import (
	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/sim"
)

// Config parameterizes an AHB layer.
type Config struct {
	// BytesPerBeat is the bus data width in bytes.
	BytesPerBeat int
}

// DefaultConfig returns a 64-bit AHB layer.
func DefaultConfig() Config { return Config{BytesPerBeat: 8} }

// Bus is a single AHB layer: one shared channel, one transaction in flight.
// It is gated (DESIGN.md §20): it sleeps after an edge on which it granted,
// forwarded and stamped nothing, until a push or pop at one of its ports.
type Bus struct {
	act  sim.Activity
	name string
	cfg  Config

	initiators []*bus.InitiatorPort
	targets    []*bus.TargetPort
	amap       *bus.AddrMap

	// current transaction (data phase) and the pipelined next one
	// (address phase): AHB overlaps the next master's address phase with
	// the current data phase (HGRANT changes early), so back-to-back
	// transactions reach the slave with no handover bubble.
	cur        *bus.Request
	curTarget  int
	next       *bus.Request
	nextTarget int
	rr         int
	// moved records that the current edge's Eval granted, forwarded or
	// stamped something; an edge that only counted sleeps (see Update).
	moved bool

	// attrCol/attrNow, when set, stamp latency-attribution phases on every
	// granted request (see EnableAttribution). attrHead caches, per
	// master port, whether the current committed head already carries a
	// stamped record (cleared at grant).
	attrCol  *attr.Collector
	attrNow  func() int64
	attrHead []bool

	cycles     int64
	busyCycles int64
	dataBeats  int64
	granted    int64
	// stallCycles counts idle-bus cycles where at least one master had a
	// request queued but no grant could be issued (slave FIFO full or no
	// decodable target) — the wait-state starvation the paper charges
	// against the shared-bus topology.
	stallCycles int64
}

// New builds an empty AHB layer.
func New(name string, cfg Config, amap *bus.AddrMap) *Bus {
	if cfg.BytesPerBeat <= 0 {
		cfg.BytesPerBeat = 8
	}
	return &Bus{name: name, cfg: cfg, amap: amap}
}

// Name returns the layer name.
func (b *Bus) Name() string { return b.name }

// AttachInitiator connects a master; see bus.Fabric. The bus pops the
// port's requests and pushes its responses.
func (b *Bus) AttachInitiator(p *bus.InitiatorPort) int {
	p.Req.PoppedBy(&b.act)
	p.Resp.PushedBy(&b.act)
	b.initiators = append(b.initiators, p)
	return len(b.initiators) - 1
}

// AttachTarget connects a slave; see bus.Fabric. The bus pushes the port's
// requests and pops its responses.
func (b *Bus) AttachTarget(p *bus.TargetPort) int {
	p.Req.PushedBy(&b.act)
	p.Resp.PoppedBy(&b.act)
	b.targets = append(b.targets, p)
	return len(b.targets) - 1
}

// EnableAttribution makes the layer stamp latency-attribution phases:
// records attach at the head-of-queue scan (PhaseArbWait); on AHB the grant
// delivers the request to the slave in the same cycle, so PhaseBusXfer is a
// zero-length marker and the time lands in PhaseTargetQueue. now must return
// the bus clock's current edge in absolute picoseconds (sim.Clock.NowPS).
func (b *Bus) EnableAttribution(col *attr.Collector, now func() int64) {
	b.attrCol = col
	b.attrNow = now
}

// Eval advances the bus one cycle, then applies the bus's sleep rule (see
// Update).
func (b *Bus) Eval() {
	b.cycles++
	b.moved = false
	if b.attrCol != nil {
		// Attach records to requests newly arrived at a master-port head
		// (entering arb_wait). The bus is the sole consumer of these
		// FIFOs, so attrHead caches "current head already stamped" per
		// port: one bool load per attached port and one inlined CanPop
		// per empty port per cycle; arbitrate clears the flag on grant.
		if len(b.attrHead) != len(b.initiators) {
			b.attrHead = make([]bool, len(b.initiators))
		}
		var now int64
		for i, ip := range b.initiators {
			if b.attrHead[i] || !ip.Req.CanPop() {
				continue
			}
			if now == 0 {
				now = b.attrNow()
			}
			bus.AttachAttr(b.attrCol, ip.Req.Peek(), now)
			b.attrHead[i] = true
			b.moved = true
		}
	}
	if b.cur != nil {
		b.busyCycles++
		// Pipelined address phase: grant one transaction ahead while
		// the current data phase is in progress.
		if b.next == nil {
			b.next, b.nextTarget = b.arbitrate()
		}
		// Wait for the slave's response beats; forward one per cycle.
		tp := b.targets[b.curTarget]
		ip := b.initiators[b.cur.Src]
		if tp.Resp.CanPop() && ip.Resp.CanPush() {
			beat := tp.Resp.Peek()
			if beat.Req.ID == b.cur.ID {
				tp.Resp.Pop()
				ip.Resp.Push(beat)
				b.moved = true
				b.dataBeats++
				if beat.Last {
					// the pipelined transaction (if any) enters
					// its data phase with no handover bubble
					b.cur, b.curTarget = b.next, b.nextTarget
					b.next = nil
				}
			}
		}
	} else {
		// Idle bus: plain address phase.
		b.cur, b.curTarget = b.arbitrate()
		if b.cur != nil {
			b.busyCycles++
		} else if b.pendingRequest() {
			b.stallCycles++
		}
	}
	if !b.moved {
		b.act.Sleep()
	}
}

// pendingRequest reports whether any master has a request queued — used to
// distinguish a stalled idle cycle from a genuinely quiet one.
func (b *Bus) pendingRequest() bool {
	for _, ip := range b.initiators {
		if ip.Req.CanPop() {
			return true
		}
	}
	return false
}

// arbitrate grants one queued request round-robin and hands it to its slave;
// it returns nil when nothing can be granted this cycle.
func (b *Bus) arbitrate() (*bus.Request, int) {
	ni := len(b.initiators)
	for k := 0; k < ni; k++ {
		i := bus.Wrap(b.rr+k, ni)
		ip := b.initiators[i]
		if !ip.Req.CanPop() {
			continue
		}
		req := ip.Req.Peek()
		t := b.amap.Decode(req.Addr)
		if t < 0 || !b.targets[t].Req.CanPush() {
			continue
		}
		ip.Req.Pop()
		req.Src = i
		req.Posted = false // AHB writes are implicitly non-posted
		if b.attrCol != nil {
			// Attach here as well as at the head scan, so a request
			// granted the same cycle it became head still gets a record;
			// the granted port's next head needs a fresh stamp.
			now := b.attrNow()
			bus.AttachAttr(b.attrCol, req, now)
			req.Attr.Enter(attr.PhaseBusXfer, now)
			req.Attr.Enter(attr.PhaseTargetQueue, now)
			if i < len(b.attrHead) {
				b.attrHead[i] = false
			}
		}
		b.targets[t].Req.Push(req)
		b.rr = bus.Wrap(i+1, ni)
		b.granted++
		b.moved = true
		return req, t
	}
	return nil, -1
}

// Update does nothing: the bus owns no FIFOs, and its sleep rule runs at
// the end of Eval: after an edge whose Eval only counted it sleeps until
// a push or pop at one of its ports, since the next Eval would see the same
// heads, the same free space and the same data-phase state, and so would
// only count again — no head grantable (absent, undecodable or its slave
// FIFO full; in a data phase, the pipelined slot already held), no response
// beat of the data-phase transaction able to move, and under attribution
// every visible head already stamped. A push or pop by the other side
// earlier in the edge pokes the bus, which refuses the sleep; one later in
// the edge wakes it with nothing booked.
func (b *Bus) Update() {}

// Activity returns the bus's sleep state.
func (b *Bus) Activity() *sim.Activity { return &b.act }

// CreditIdle books n skipped edges: the cycle counter, and the busy cycles
// of a held data phase or, on an idle bus with a request queued, the stall
// cycles.
func (b *Bus) CreditIdle(n int64) {
	b.cycles += n
	if b.cur != nil {
		b.busyCycles += n
	} else if b.pendingRequest() {
		b.stallCycles += n
	}
}

// RegisterMetrics registers the layer's telemetry under "ahb.<name>.*" on
// the given clock domain: grants, busy/stall cycles, data beats, and an
// in-flight gauge (0/1/2 — the current data phase plus the pipelined
// address phase). Func-backed: the grant path is untouched.
func (b *Bus) RegisterMetrics(m *metrics.Registry, clock string) {
	p := "ahb." + b.name + "."
	m.CounterFunc(p+"grants", func() int64 { return b.granted })
	m.CounterFunc(p+"busy_cycles", func() int64 { return b.busyCycles })
	m.CounterFunc(p+"stall_cycles", func() int64 { return b.stallCycles })
	m.CounterFunc(p+"data_beats", func() int64 { return b.dataBeats })
	m.GaugeFunc(p+"outstanding", clock, func() int64 {
		var n int64
		if b.cur != nil {
			n++
		}
		if b.next != nil {
			n++
		}
		return n
	})
}

// Stats reports bus activity.
func (b *Bus) Stats() Stats {
	return Stats{
		Cycles:      b.cycles,
		BusyCycles:  b.busyCycles,
		DataBeats:   b.dataBeats,
		Granted:     b.granted,
		StallCycles: b.stallCycles,
	}
}

// Stats summarizes AHB activity.
type Stats struct {
	Cycles      int64
	BusyCycles  int64
	DataBeats   int64
	Granted     int64
	StallCycles int64
}

// Utilization is the busy fraction of the bus (held cycles, including the
// idle wait-state cycles the paper highlights as AHB's weakness).
func (s Stats) Utilization() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(s.Cycles)
}

// DataEfficiency is the fraction of held cycles that moved data.
func (s Stats) DataEfficiency() float64 {
	if s.BusyCycles == 0 {
		return 0
	}
	return float64(s.DataBeats) / float64(s.BusyCycles)
}
