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

	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/iptg"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/stats"
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
// so the platform builder can swap one for the other.
type Initiator struct {
	act    sim.Activity
	cfg    Config
	port   *bus.InitiatorPort
	clk    *sim.Clock
	ids    *bus.IDSource
	origin int
	pool   *bus.RequestPool

	events []tracecap.Event
	// target holds the issue cycle of each event rescaled into the replay
	// clock domain (precomputed at construction, identity when the
	// domains match).
	target []int64

	// byReqID tracks the in-flight (non-posted) requests this initiator
	// issued. Some fabric/bridge combinations route acknowledgement beats
	// even for posted writes the target already consumed (and reclaimed);
	// like iptg.Generator, the replayer must ignore beats for requests it
	// is not tracking, or it would double-complete and double-recycle.
	byReqID map[uint64]struct{}
	// attrCol, when set, closes each tracked transaction's attribution
	// record at final-beat consumption (see UseAttribution).
	attrCol   *attr.Collector
	next      int
	inFlight  int
	issued    int64
	completed int64
	reads     int64
	writes    int64
	bytes     int64
	latency   stats.Histogram
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
		cfg:     cfg,
		port:    bus.NewInitiatorPort(cfg.Stream.Name, cfg.PortReqDepth, cfg.PortRespDepth),
		clk:     clk,
		ids:     ids,
		origin:  origin,
		events:  cfg.Stream.Events,
		target:  make([]int64, len(cfg.Stream.Events)),
		byReqID: make(map[uint64]struct{}, 64),
	}
	src, dst := cfg.Stream.PeriodPS, clk.PeriodPS()
	for i := range in.events {
		c := in.events[i].IssueCycle
		if src > 0 && src != dst {
			// Same absolute instant, nearest edge of the new domain.
			c = (c*src + dst/2) / dst
		}
		in.target[i] = c
	}
	in.port.OwnedBy(&in.act)
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

// UseRequestPool makes the initiator mint requests from (and return them to)
// the given pool. Call before simulation starts.
func (in *Initiator) UseRequestPool(p *bus.RequestPool) { in.pool = p }

// UseAttribution makes the replayer finish each tracked transaction's
// latency-attribution record when it consumes the final response beat
// (posted writes finish at the consuming memory instead). Call before
// simulation starts.
func (in *Initiator) UseAttribution(col *attr.Collector) { in.attrCol = col }

// Port returns the initiator port to attach to a fabric.
func (in *Initiator) Port() *bus.InitiatorPort { return in.port }

// Name returns the replayed initiator's name.
func (in *Initiator) Name() string { return in.cfg.Stream.Name }

// Origin returns the platform-wide initiator identity.
func (in *Initiator) Origin() int { return in.origin }

// Done reports whether every recorded event has been issued and completed.
func (in *Initiator) Done() bool { return in.next >= len(in.events) && in.inFlight == 0 }

// Eval collects responses and issues at most one transaction per cycle, the
// same per-cycle discipline as the generator that recorded the stream.
func (in *Initiator) Eval() {
	in.collect()
	in.issue()
}

// Update commits the port FIFOs and, with no response to collect, sleeps
// while the next issue waits for a response (or the stream is exhausted),
// for room in the full request FIFO, or for its recorded cycle.
func (in *Initiator) Update() {
	in.port.Update()
	switch {
	case in.port.Resp.Len() != 0:
		// collects at the next edge
	case in.next >= len(in.events) || !in.port.Req.CanPush():
		in.act.Sleep()
	case in.cfg.Mode == Timed:
		in.act.SleepUntil(in.target[in.next])
	case in.inFlight >= in.cfg.Outstanding:
		in.act.Sleep()
	}
}

// Activity returns the replayer's sleep state.
func (in *Initiator) Activity() *sim.Activity { return &in.act }

// CreditIdle books skipped idle edges; an idle replayer counts nothing.
func (in *Initiator) CreditIdle(int64) {}

func (in *Initiator) collect() {
	for in.port.Resp.CanPop() {
		beat := in.port.Resp.Pop()
		if !beat.Last {
			continue
		}
		if _, ok := in.byReqID[beat.Req.ID]; !ok {
			// An ack for a write that completed at issue as posted and
			// that a non-posting fabric (AHB) turned into a non-posted
			// one: nobody tracks it, and this beat is its last reference.
			in.pool.Put(beat.Req)
			continue
		}
		delete(in.byReqID, beat.Req.ID)
		// The transaction was tracked, so this request is ours and this
		// beat is its final reference: complete it and recycle it.
		in.inFlight--
		in.completed++
		in.latency.Add(in.clk.Cycles() - beat.Req.IssueCycle)
		if pr := in.port.Probe; pr != nil {
			pr.RequestCompleted(beat.Req, in.clk.Cycles())
		}
		if rec := beat.Req.Attr; rec != nil && in.attrCol != nil {
			in.attrCol.Finish(rec, in.clk.NowPS())
		}
		in.pool.Put(beat.Req)
	}
}

func (in *Initiator) issue() {
	if in.next >= len(in.events) || !in.port.Req.CanPush() {
		return
	}
	ev := &in.events[in.next]
	switch in.cfg.Mode {
	case Timed:
		if in.clk.Cycles() < in.target[in.next] {
			return
		}
	case Elastic:
		if in.inFlight >= in.cfg.Outstanding {
			return
		}
	}
	req := in.pool.Get()
	*req = bus.Request{
		ID:           in.ids.Next(),
		Origin:       in.origin,
		Op:           ev.Op,
		Addr:         ev.Addr,
		Beats:        ev.Beats,
		BytesPerBeat: ev.BytesPerBeat,
		Prio:         ev.Prio,
		MsgSeq:       ev.MsgSeq,
		MsgEnd:       ev.MsgEnd,
		Posted:       ev.Posted,
		IssueCycle:   in.clk.Cycles(),
		IssuePS:      in.clk.NowPS(),
	}
	in.port.Req.Push(req)
	if pr := in.port.Probe; pr != nil {
		pr.RequestIssued(req)
	}
	in.next++
	in.issued++
	in.bytes += int64(req.Bytes())
	if req.Op == bus.OpRead {
		in.reads++
	} else {
		in.writes++
	}
	if req.Op == bus.OpRead || !req.Posted {
		in.inFlight++
		in.byReqID[req.ID] = struct{}{}
	} else {
		in.completed++ // posted writes complete at issue
	}
}

// RegisterMetrics registers the replayer's telemetry under "ip.<name>.*" on
// the given clock domain, mirroring the live generator's IP-level shape (one
// synthetic agent named "replay") so replayed runs export through the same
// metric names. Func-backed: the replay issue path is untouched.
func (in *Initiator) RegisterMetrics(m *metrics.Registry, clock string) {
	p := "ip." + in.Name() + "."
	m.CounterFunc(p+"issued", func() int64 { return in.issued })
	m.CounterFunc(p+"completed", func() int64 { return in.completed })
	m.GaugeFunc(p+"req_depth", clock, func() int64 { return int64(in.port.Req.Len()) })
	ap := p + "replay[" + in.cfg.Mode.String() + "]."
	m.CounterFunc(ap+"issued", func() int64 { return in.issued })
	m.CounterFunc(ap+"completed", func() int64 { return in.completed })
	m.CounterFunc(ap+"bytes", func() int64 { return in.bytes })
	m.Histogram(ap+"latency", &in.latency)
}

// Issued returns the transactions issued so far.
func (in *Initiator) Issued() int64 { return in.issued }

// Completed returns the transactions completed so far.
func (in *Initiator) Completed() int64 { return in.completed }

// Remaining returns the recorded events not yet issued.
func (in *Initiator) Remaining() int { return len(in.events) - in.next }

// MaxConcurrent returns the initiator's outstanding-transaction cap.
func (in *Initiator) MaxConcurrent() int64 { return int64(in.cfg.Outstanding) }

// Stats reports the replayer's activity in the generator stats shape: one
// synthetic agent named after the scheduling mode, so replay results render
// through the same reporting path as live runs.
func (in *Initiator) Stats() []iptg.AgentStats {
	return []iptg.AgentStats{{
		Name:        "replay[" + in.cfg.Mode.String() + "]",
		Issued:      in.issued,
		Completed:   in.completed,
		Reads:       in.reads,
		Writes:      in.writes,
		Bytes:       in.bytes,
		MeanLatency: in.latency.Mean(),
		MaxLatency:  in.latency.Max(),
		P50Latency:  in.latency.Quantile(0.5),
		P90Latency:  in.latency.Quantile(0.9),
	}}
}

// LatencyHistogram exposes the measured completion latencies for
// differential comparisons against the capture baseline.
func (in *Initiator) LatencyHistogram() stats.Histogram { return in.latency }
