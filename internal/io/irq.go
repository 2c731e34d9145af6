package io

import (
	"fmt"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/iptg"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/stats"
)

// IRQConfig parameterizes an interrupt-driven I/O device agent.
type IRQConfig struct {
	Name string
	// Events is the total device events the agent raises over the run
	// (finite: the platform run drains when every initiator is Done).
	Events int
	// PeriodCycles is the nominal inter-event period; JitterCycles is the
	// uniform ± jitter applied per raise (the effective period never drops
	// below 1).
	PeriodCycles int64
	JitterCycles int64
	// DeadlineCycles is each event's service deadline, measured in this
	// agent's clock cycles from the raise to the final drain beat.
	DeadlineCycles int64
	// Bursts is how many bus transactions one interrupt service routine
	// performs (status reads + buffer drains); BurstBeats is the burst
	// length of each.
	Bursts     int
	BurstBeats int
	// ReadFrac is the probability each service transaction is a read
	// (device buffer drain) rather than a write (buffer refill / ack).
	ReadFrac float64
	// Outstanding bounds simultaneously in-flight service transactions.
	Outstanding int
	// RegionBase/RegionSize bound the device's buffer window.
	RegionBase uint64
	RegionSize uint64
	// BytesPerBeat is the agent's data width.
	BytesPerBeat int
	// Prio is the request priority label.
	Prio int
	// PortReqDepth/PortRespDepth size the bus interface FIFOs.
	PortReqDepth  int
	PortRespDepth int
	// Seed makes jitter and read/write choices deterministic.
	Seed uint64
}

func (c *IRQConfig) normalize() error {
	if c.Name == "" {
		return fmt.Errorf("io: IRQ device needs a name")
	}
	if c.Events <= 0 {
		return fmt.Errorf("io: IRQ device %q: non-positive event count %d", c.Name, c.Events)
	}
	if c.PeriodCycles <= 0 {
		c.PeriodCycles = 400
	}
	if c.JitterCycles < 0 {
		c.JitterCycles = 0
	}
	if c.DeadlineCycles <= 0 {
		c.DeadlineCycles = 256
	}
	if c.Bursts <= 0 {
		c.Bursts = 4
	}
	if c.BurstBeats <= 0 {
		c.BurstBeats = 8
	}
	if c.ReadFrac < 0 || c.ReadFrac > 1 {
		c.ReadFrac = 0.75
	}
	if c.Outstanding <= 0 {
		c.Outstanding = 2
	}
	if c.BytesPerBeat <= 0 {
		c.BytesPerBeat = 8
	}
	if c.RegionSize == 0 {
		c.RegionSize = 1 << 20
	}
	if c.PortReqDepth <= 0 {
		c.PortReqDepth = 4
	}
	if c.PortRespDepth <= 0 {
		c.PortRespDepth = 8
	}
	return nil
}

// Device is an interrupt-driven I/O agent: a device-side event source raises
// an IRQ line on a jittered period; the modelled service routine drains the
// device buffer as a fixed number of bus transactions. Events queue while a
// service is in progress (the IRQ line stays asserted), service is strictly
// FIFO, and each event's service latency — raise to the final drain beat — is
// checked against the deadline.
type Device struct {
	act    sim.Activity
	cfg    IRQConfig
	port   *bus.InitiatorPort
	clk    *sim.Clock
	rng    *sim.Rand
	ids    *bus.IDSource
	origin int

	pool    *bus.RequestPool
	attrCol *attr.Collector

	// Raise side. raiseRing holds the raise cycle of each pending event,
	// preallocated to exactly cfg.Events (the hard upper bound on
	// simultaneously pending events), indexed head..head+pending.
	nextRaiseIn int64
	raiseRing   []int64
	head        int
	pending     int64
	pendingMax  int64

	// Service side: the head event's in-progress drain.
	burstsIssued int
	burstsDone   int

	byReqID  map[uint64]struct{}
	inFlight int

	raised         int64
	serviced       int64
	met            int64
	missed         int64
	issuedTotal    int64
	completedTotal int64
	readsTotal     int64
	writesTotal    int64
	bytesTotal     int64
	latency        stats.Histogram // per-transaction, cycles
	svcLatency     stats.Histogram // per-event raise→final-drain, cycles
}

// NewIRQ builds an interrupt-driven device agent.
func NewIRQ(cfg IRQConfig, clk *sim.Clock, ids *bus.IDSource, origin int) (*Device, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:       cfg,
		port:      bus.NewInitiatorPort(cfg.Name, cfg.PortReqDepth, cfg.PortRespDepth),
		clk:       clk,
		rng:       sim.NewRand(cfg.Seed ^ 0x12c),
		ids:       ids,
		origin:    origin,
		raiseRing: make([]int64, cfg.Events),
		byReqID:   make(map[uint64]struct{}, cfg.Outstanding),
	}
	d.nextRaiseIn = d.drawPeriod()
	d.port.OwnedBy(&d.act)
	return d, nil
}

// drawPeriod samples the next inter-raise interval: period ± uniform jitter,
// floored at 1 cycle.
func (d *Device) drawPeriod() int64 {
	p := d.cfg.PeriodCycles
	if j := d.cfg.JitterCycles; j > 0 {
		p += int64(d.rng.Range(int(-j), int(j)))
	}
	if p < 1 {
		p = 1
	}
	return p
}

// UseRequestPool makes the device mint requests from (and return them to)
// the given pool. Call before simulation starts.
func (d *Device) UseRequestPool(p *bus.RequestPool) { d.pool = p }

// UseAttribution makes the device finish each transaction's attribution
// record at final-beat consumption.
func (d *Device) UseAttribution(col *attr.Collector) { d.attrCol = col }

// Port returns the initiator port to attach to a fabric.
func (d *Device) Port() *bus.InitiatorPort { return d.port }

// Name returns the device name.
func (d *Device) Name() string { return d.cfg.Name }

// Origin returns the platform-wide initiator identity.
func (d *Device) Origin() int { return d.origin }

// Done reports whether every device event has been raised and serviced.
func (d *Device) Done() bool { return d.serviced >= int64(d.cfg.Events) }

// Issued returns the total service transactions issued.
func (d *Device) Issued() int64 { return d.issuedTotal }

// Completed returns the total completed service transactions.
func (d *Device) Completed() int64 { return d.completedTotal }

// MaxConcurrent bounds the device's simultaneously in-flight transactions.
func (d *Device) MaxConcurrent() int64 { return int64(d.cfg.Outstanding) }

// Eval raises due events, collects drain beats and issues at most one new
// service transaction per cycle.
func (d *Device) Eval() {
	d.raise()
	d.collect()
	d.issue()
}

// Update commits the port FIFOs and, when no response waits and the head
// event's service cannot issue, sleeps until a response arrives, the full
// request FIFO gives up an entry, or the next raise is due.
func (d *Device) Update() {
	d.port.Update()
	if d.port.Resp.Len() != 0 {
		return // collects at the next edge
	}
	if d.pending > 0 && d.burstsIssued < d.cfg.Bursts && d.inFlight < d.cfg.Outstanding && d.port.Req.CanPush() {
		return // services the head event at the next edge
	}
	if d.raised >= int64(d.cfg.Events) {
		d.act.Sleep()
		return
	}
	d.act.SleepUntil(d.clk.Cycles() + d.nextRaiseIn)
}

// Activity returns the device's sleep state.
func (d *Device) Activity() *sim.Activity { return &d.act }

// CreditIdle books n skipped idle edges: the raise countdown.
func (d *Device) CreditIdle(n int64) {
	if d.raised < int64(d.cfg.Events) {
		d.nextRaiseIn -= n
	}
}

// raise fires the device event source: count down the jittered period and
// assert the IRQ line (append to the pending ring) when it expires.
func (d *Device) raise() {
	if d.raised >= int64(d.cfg.Events) {
		return
	}
	d.nextRaiseIn--
	if d.nextRaiseIn > 0 {
		return
	}
	d.raiseRing[(d.head+int(d.pending))%len(d.raiseRing)] = d.clk.Cycles()
	d.raised++
	d.pending++
	if d.pending > d.pendingMax {
		d.pendingMax = d.pending
	}
	d.nextRaiseIn = d.drawPeriod()
}

func (d *Device) collect() {
	for d.port.Resp.CanPop() {
		beat := d.port.Resp.Pop()
		if !beat.Last {
			continue
		}
		if _, ok := d.byReqID[beat.Req.ID]; !ok {
			continue
		}
		delete(d.byReqID, beat.Req.ID)
		d.inFlight--
		d.completedTotal++
		d.burstsDone++
		d.latency.Add(d.clk.Cycles() - beat.Req.IssueCycle)
		if pr := d.port.Probe; pr != nil {
			pr.RequestCompleted(beat.Req, d.clk.Cycles())
		}
		if rec := beat.Req.Attr; rec != nil && d.attrCol != nil {
			d.attrCol.Finish(rec, d.clk.NowPS())
		}
		d.pool.Put(beat.Req)
		if d.burstsDone == d.cfg.Bursts {
			d.completeEvent()
		}
	}
}

// completeEvent closes the head event's service: the final drain beat just
// landed, so score the raise→now latency against the deadline and pop the
// IRQ ring.
func (d *Device) completeEvent() {
	svc := d.clk.Cycles() - d.raiseRing[d.head]
	d.svcLatency.Add(svc)
	if svc > d.cfg.DeadlineCycles {
		d.missed++
	} else {
		d.met++
	}
	d.serviced++
	d.head = (d.head + 1) % len(d.raiseRing)
	d.pending--
	d.burstsIssued = 0
	d.burstsDone = 0
}

// issue advances the head event's service routine by at most one transaction.
func (d *Device) issue() {
	if d.pending == 0 || d.burstsIssued >= d.cfg.Bursts ||
		d.inFlight >= d.cfg.Outstanding || !d.port.Req.CanPush() {
		return
	}
	op := bus.OpWrite
	if d.rng.Bool(d.cfg.ReadFrac) {
		op = bus.OpRead
	}
	bb := uint64(d.cfg.BurstBeats * d.cfg.BytesPerBeat)
	span := d.cfg.RegionSize / bb
	if span == 0 {
		span = 1
	}
	addr := d.cfg.RegionBase + uint64(d.rng.Intn(int(span)))*bb
	req := d.pool.Get()
	*req = bus.Request{
		ID:           d.ids.Next(),
		Origin:       d.origin,
		Op:           op,
		Addr:         addr,
		Beats:        d.cfg.BurstBeats,
		BytesPerBeat: d.cfg.BytesPerBeat,
		Prio:         d.cfg.Prio,
		IssueCycle:   d.clk.Cycles(),
		IssuePS:      d.clk.NowPS(),
		MsgEnd:       true,
	}
	d.port.Req.Push(req)
	if pr := d.port.Probe; pr != nil {
		pr.RequestIssued(req)
	}
	d.issuedTotal++
	d.bytesTotal += int64(req.Bytes())
	if op == bus.OpRead {
		d.readsTotal++
	} else {
		d.writesTotal++
	}
	d.byReqID[req.ID] = struct{}{}
	d.inFlight++
	d.burstsIssued++
}

// DeadlineStats implements DeadlineTracker.
func (d *Device) DeadlineStats() DeadlineStats {
	return deadlineStats(d.cfg.Name, d.cfg.DeadlineCycles,
		d.raised, d.serviced, d.met, d.missed, d.pendingMax, &d.svcLatency)
}

// Missed returns the deadline-miss count so far.
func (d *Device) Missed() int64 { return d.missed }

// Stats reports the device as a single-agent IP row.
func (d *Device) Stats() []iptg.AgentStats {
	return []iptg.AgentStats{{
		Name:         "isr",
		Issued:       d.issuedTotal,
		Completed:    d.completedTotal,
		Reads:        d.readsTotal,
		Writes:       d.writesTotal,
		Bytes:        d.bytesTotal,
		MeanLatency:  d.latency.Mean(),
		MaxLatency:   d.latency.Max(),
		P50Latency:   d.latency.Quantile(0.5),
		P90Latency:   d.latency.Quantile(0.9),
		CurrentPhase: int(d.serviced),
	}}
}

// RegisterMetrics registers the device's telemetry: the shared "ip.<name>.*"
// initiator surface plus IRQ-specific instruments under "io.irq.<name>.*".
func (d *Device) RegisterMetrics(m *metrics.Registry, clock string) {
	p := "ip." + d.cfg.Name + "."
	m.CounterFunc(p+"issued", func() int64 { return d.issuedTotal })
	m.CounterFunc(p+"completed", func() int64 { return d.completedTotal })
	m.GaugeFunc(p+"req_depth", clock, func() int64 { return int64(d.port.Req.Len()) })
	ap := p + "isr."
	m.CounterFunc(ap+"issued", func() int64 { return d.issuedTotal })
	m.CounterFunc(ap+"completed", func() int64 { return d.completedTotal })
	m.CounterFunc(ap+"bytes", func() int64 { return d.bytesTotal })
	m.Histogram(ap+"latency", &d.latency)

	ip := "io.irq." + d.cfg.Name + "."
	m.CounterFunc(ip+"events_raised", func() int64 { return d.raised })
	m.CounterFunc(ip+"events_serviced", func() int64 { return d.serviced })
	m.CounterFunc(ip+"deadline_misses", func() int64 { return d.missed })
	m.GaugeFunc(ip+"pending", clock, func() int64 { return d.pending })
	m.Histogram(ip+"service_latency", &d.svcLatency)
}
