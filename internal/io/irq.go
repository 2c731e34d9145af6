package io

import (
	"fmt"

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
	iptg.Issuer
	cfg IRQConfig
	rng *sim.Rand

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

	raised     int64
	serviced   int64
	met        int64
	missed     int64
	svcLatency stats.Histogram // per-event raise→final-drain, cycles
}

// NewIRQ builds an interrupt-driven device agent.
func NewIRQ(cfg IRQConfig, clk *sim.Clock, ids *bus.IDSource, origin int) (*Device, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:       cfg,
		rng:       sim.NewRand(cfg.Seed ^ 0x12c),
		raiseRing: make([]int64, cfg.Events),
	}
	d.Init(bus.NewInitiatorPort(cfg.Name, cfg.PortReqDepth, cfg.PortRespDepth), clk, ids, origin,
		[]string{"isr"}, d.complete)
	d.nextRaiseIn = d.drawPeriod()
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

// Done reports whether every device event has been raised and serviced.
func (d *Device) Done() bool { return d.serviced >= int64(d.cfg.Events) }

// MaxConcurrent bounds the device's simultaneously in-flight transactions.
func (d *Device) MaxConcurrent() int64 { return int64(d.cfg.Outstanding) }

// Eval raises due events, collects drain beats and issues at most one new
// service transaction per cycle.
func (d *Device) Eval() {
	d.raise()
	d.Collect()
	d.issue()
}

// Update commits the port FIFOs and, when no response waits and the head
// event's service cannot issue, sleeps until a response arrives, the full
// request FIFO gives up an entry, or the next raise is due.
func (d *Device) Update() {
	port := d.Port()
	port.Update()
	if port.Resp.Len() != 0 {
		return // collects at the next edge
	}
	if d.canIssue() {
		return // services the head event at the next edge
	}
	if d.raised >= int64(d.cfg.Events) {
		d.Activity().Sleep()
		return
	}
	d.Activity().SleepUntil(d.Clock().Cycles() + d.nextRaiseIn)
}

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
	d.raiseRing[(d.head+int(d.pending))%len(d.raiseRing)] = d.Clock().Cycles()
	d.raised++
	d.pending++
	if d.pending > d.pendingMax {
		d.pendingMax = d.pending
	}
	d.nextRaiseIn = d.drawPeriod()
}

// complete books a drain transaction of the head event's service and
// closes the service at the final one.
func (d *Device) complete(int) {
	d.burstsDone++
	if d.burstsDone == d.cfg.Bursts {
		d.completeEvent()
	}
}

// completeEvent closes the head event's service: the final drain beat just
// landed, so score the raise→now latency against the deadline and pop the
// IRQ ring.
func (d *Device) completeEvent() {
	svc := d.Clock().Cycles() - d.raiseRing[d.head]
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

// canIssue reports whether the head event's service can issue its next
// transaction.
func (d *Device) canIssue() bool {
	return d.pending > 0 && d.burstsIssued < d.cfg.Bursts &&
		d.InFlight() < d.cfg.Outstanding && d.Port().Req.CanPush()
}

// issue advances the head event's service routine by at most one transaction.
func (d *Device) issue() {
	if !d.canIssue() {
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
	d.Issue(0, bus.Request{
		Op:           op,
		Addr:         d.cfg.RegionBase + uint64(d.rng.Intn(int(span)))*bb,
		Beats:        d.cfg.BurstBeats,
		BytesPerBeat: d.cfg.BytesPerBeat,
		Prio:         d.cfg.Prio,
		MsgEnd:       true,
	}, true)
	d.burstsIssued++
}

// DeadlineStats implements DeadlineTracker.
func (d *Device) DeadlineStats() DeadlineStats {
	return deadlineStats(d.cfg.Name, d.cfg.DeadlineCycles,
		d.raised, d.serviced, d.met, d.missed, d.pendingMax, &d.svcLatency)
}

// Stats reports the device as a single-agent IP row.
func (d *Device) Stats() []iptg.AgentStats {
	out := d.Issuer.Stats()
	out[0].CurrentPhase = int(d.serviced)
	return out
}

// RegisterMetrics registers the device's telemetry: the shared "ip.<name>.*"
// initiator surface plus IRQ-specific instruments under "io.irq.<name>.*".
func (d *Device) RegisterMetrics(m *metrics.Registry, clock string) {
	d.Issuer.RegisterMetrics(m, clock)
	ip := "io.irq." + d.cfg.Name + "."
	m.CounterFunc(ip+"events_raised", func() int64 { return d.raised })
	m.CounterFunc(ip+"events_serviced", func() int64 { return d.serviced })
	m.CounterFunc(ip+"deadline_misses", func() int64 { return d.missed })
	m.GaugeFunc(ip+"pending", clock, func() int64 { return d.pending })
	m.Histogram(ip+"service_latency", &d.svcLatency)
}
