// Package replay provides trace-driven stimulus: an initiator that re-drives
// a transaction stream captured by internal/tracecap into any fabric, in
// place of the live iptg.Generator that produced it. This is the
// recorded-stimulus methodology of the paper's §3.1 ("reproduce the traffic
// of real IP cores") turned into a differential tool — every fabric or
// topology variant can be measured under *bit-identical* traffic.
//
// Two scheduling modes are supported:
//
//   - Timed re-issues each transaction at its recorded cycle (rescaled if
//     the replay clock domain differs from the capture domain), modelling a
//     fixed-rate IP core. Backpressure can only delay an issue, never
//     advance it, so replaying a trace into the platform that captured it
//     reproduces the original run exactly.
//   - Elastic issues as fast as the port accepts within a bounded
//     outstanding window, modelling an elastic master that drains its
//     command queue as quickly as the interconnect allows.
//
// The initiator is request-pool-aware and allocates nothing per transaction
// in steady state, preserving the platform's zero-alloc invariant.
package replay

import (
	"errors"
	"fmt"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/iptg"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/tracecap"
)

// Mode selects the replay scheduling discipline.
type Mode int

// Modes.
const (
	// Timed re-issues at the recorded cycles (fixed-rate IP core).
	Timed Mode = iota
	// Elastic issues as fast as accepted within the outstanding window.
	Elastic
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Timed:
		return "timed"
	case Elastic:
		return "elastic"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses a mode name ("timed" or "elastic").
func ParseMode(s string) (Mode, error) {
	switch s {
	case "timed":
		return Timed, nil
	case "elastic":
		return Elastic, nil
	}
	return 0, fmt.Errorf("replay: unknown mode %q (want timed|elastic)", s)
}

// Config parameterizes a replay initiator.
type Config struct {
	// Stream is the recorded transaction sequence to re-drive (required).
	Stream *tracecap.Stream
	Mode   Mode
	// Outstanding bounds in-flight transactions in Elastic mode
	// (default 8). Timed mode follows the recorded schedule and needs no
	// window — the capture already embodies the source's pipelining.
	Outstanding int
	// PortReqDepth/PortRespDepth size the bus-interface FIFOs; defaults
	// (4/8) match iptg.Config, so a replayer substituted for a generator
	// presents an identical port to the fabric.
	PortReqDepth  int
	PortRespDepth int
}

// Initiator re-drives one captured stream. It implements the same component
// surface as iptg.Generator (sim.Clocked, Port, Done, Stats, pool wiring),
// so the platform builder can swap one for the other; its Issuer books one
// synthetic agent named after the scheduling mode, so replay results render
// through the same reporting path and metric names as live runs.
type Initiator struct {
	iptg.Issuer
	cfg Config

	events []tracecap.Event
	// target holds the issue cycle of each event rescaled into the replay
	// clock domain (precomputed at construction, identity when the
	// domains match).
	target []int64
	next   int
}

// New builds a replay initiator for one stream. The IDSource and origin play
// the same roles as for iptg.New: platform-unique request IDs and the
// end-to-end initiator identity.
func New(cfg Config, clk *sim.Clock, ids *bus.IDSource, origin int) (*Initiator, error) {
	if cfg.Stream == nil {
		return nil, errors.New("replay: nil stream")
	}
	if cfg.Outstanding <= 0 {
		cfg.Outstanding = 8
	}
	if cfg.PortReqDepth <= 0 {
		cfg.PortReqDepth = 4
	}
	if cfg.PortRespDepth <= 0 {
		cfg.PortRespDepth = 8
	}
	in := &Initiator{
		cfg:    cfg,
		events: cfg.Stream.Events,
		target: make([]int64, len(cfg.Stream.Events)),
	}
	in.Init(bus.NewInitiatorPort(cfg.Stream.Name, cfg.PortReqDepth, cfg.PortRespDepth), clk, ids, origin,
		[]string{"replay[" + cfg.Mode.String() + "]"}, nil)
	src, dst := cfg.Stream.PeriodPS, clk.PeriodPS()
	for i := range in.events {
		c := in.events[i].IssueCycle
		if src > 0 && src != dst {
			// Same absolute instant, nearest edge of the new domain.
			c = (c*src + dst/2) / dst
		}
		in.target[i] = c
	}
	return in, nil
}

// MustNew is New that panics on config errors.
func MustNew(cfg Config, clk *sim.Clock, ids *bus.IDSource, origin int) *Initiator {
	in, err := New(cfg, clk, ids, origin)
	if err != nil {
		panic(err)
	}
	return in
}

// Done reports whether every recorded event has been issued and completed.
func (in *Initiator) Done() bool { return in.next >= len(in.events) && in.InFlight() == 0 }

// Eval collects responses and issues at most one transaction per cycle, the
// same per-cycle discipline as the generator that recorded the stream.
func (in *Initiator) Eval() {
	in.Collect()
	in.issue()
}

// Update commits the port FIFOs and, with no response to collect, sleeps
// while the next issue waits for a response (or the stream is exhausted),
// for room in the full request FIFO, or for its recorded cycle.
func (in *Initiator) Update() {
	port := in.Port()
	port.Update()
	switch {
	case port.Resp.Len() != 0:
		// collects at the next edge
	case in.next >= len(in.events) || !port.Req.CanPush():
		in.Activity().Sleep()
	case in.cfg.Mode == Timed:
		in.Activity().SleepUntil(in.target[in.next])
	case in.InFlight() >= in.cfg.Outstanding:
		in.Activity().Sleep()
	}
}

// CreditIdle books skipped idle edges; an idle replayer counts nothing.
func (in *Initiator) CreditIdle(int64) {}

func (in *Initiator) issue() {
	if in.next >= len(in.events) || !in.Port().Req.CanPush() {
		return
	}
	ev := &in.events[in.next]
	switch in.cfg.Mode {
	case Timed:
		if in.Clock().Cycles() < in.target[in.next] {
			return
		}
	case Elastic:
		if in.InFlight() >= in.cfg.Outstanding {
			return
		}
	}
	in.Issue(0, bus.Request{
		Op:           ev.Op,
		Addr:         ev.Addr,
		Beats:        ev.Beats,
		BytesPerBeat: ev.BytesPerBeat,
		Prio:         ev.Prio,
		MsgSeq:       ev.MsgSeq,
		MsgEnd:       ev.MsgEnd,
		Posted:       ev.Posted,
	}, true)
	in.next++
}

// Remaining returns the recorded events not yet issued.
func (in *Initiator) Remaining() int { return len(in.events) - in.next }
