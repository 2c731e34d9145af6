package iptg

import (
	"math"
	"sort"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/snapshot"
	"mpsocsim/internal/stats"
)

// Issuer is the issue side every initiator of the platform shares: the IPTG
// generator, the trace replayer, the I/O initiators of internal/io and the
// DSP core of internal/dspcore embed one. It owns the bus interface and the
// request lifecycle behind it: minting requests from the pool, tracking
// each non-posted one until its final response beat, closing its probe
// event and attribution record, recycling it, and booking the per-agent
// statistics the report renders. The embedding owner decides only what to
// issue next and when to sleep. Besides the Issuer, only the bridges mint
// requests: the downstream clones of what they forward.
//
// Tracked requests carry an owner tag. With several agents (an IPTG's), the
// tag is the issuing agent's index; with one agent every tag books into it,
// and the tag is free for the owner's own use (the DMA engine's transaction
// kind).
type Issuer struct {
	act    sim.Activity
	port   *bus.InitiatorPort
	clk    *sim.Clock
	ids    *bus.IDSource
	origin int

	// pool recycles the requests (nil outside platform builds); attrCol,
	// when set, closes each tracked transaction's attribution record at
	// final-beat consumption.
	pool    *bus.RequestPool
	attrCol *attr.Collector

	// tracked maps each in-flight request's ID to its owner tag and issue
	// cycle; done, when set, is handed the tag of each tracked request that
	// completes.
	tracked map[uint64]pending
	done    func(tag int)

	issued    int64
	completed int64
	// lastIssue is the cycle of the newest issue (a posted write included),
	// lastComplete that of the newest tracked completion; -1 until one
	// happens.
	lastIssue    int64
	lastComplete int64
	tallies      []tally
}

// pending is one tracked request: its owner tag and the cycle it issued at.
type pending struct {
	tag   int
	cycle int64
}

// tally is one agent's activity: the row AgentStats renders.
type tally struct {
	name      string
	issued    int64
	completed int64
	reads     int64
	writes    int64
	bytes     int64
	latency   stats.Histogram
}

// inFlight counts the agent's issued requests that have not completed.
func (t *tally) inFlight() int64 { return t.issued - t.completed }

// Init sets up the issuer in place (the port records the address of its
// activity, so call it on the issuer embedded in its owner, once). ids must
// hand out request IDs no other initiator of the platform uses; origin
// identifies the initiator in end-to-end statistics; agents names the
// statistics rows; done, when non-nil, is handed the tag of every tracked
// request that completes, before the request is recycled.
func (s *Issuer) Init(port *bus.InitiatorPort, clk *sim.Clock, ids *bus.IDSource, origin int, agents []string, done func(tag int)) {
	s.port = port
	s.clk = clk
	s.ids = ids
	s.origin = origin
	s.tracked = map[uint64]pending{}
	s.done = done
	s.lastIssue, s.lastComplete = -1, -1
	s.tallies = make([]tally, len(agents))
	for i, name := range agents {
		s.tallies[i].name = name
	}
	port.OwnedBy(&s.act)
}

// UseRequestPool makes the initiator mint requests from (and return them to)
// the given pool. Call before simulation starts.
func (s *Issuer) UseRequestPool(p *bus.RequestPool) { s.pool = p }

// UseAttribution makes the initiator finish each tracked transaction's
// latency-attribution record when it consumes the final response beat
// (posted writes finish at the consuming memory instead). Call before
// simulation starts.
func (s *Issuer) UseAttribution(col *attr.Collector) { s.attrCol = col }

// Port returns the initiator port to attach to a fabric.
func (s *Issuer) Port() *bus.InitiatorPort { return s.port }

// Name returns the initiator's name.
func (s *Issuer) Name() string { return s.port.Name }

// Origin returns the platform-wide initiator identity.
func (s *Issuer) Origin() int { return s.origin }

// Activity returns the initiator's sleep state.
func (s *Issuer) Activity() *sim.Activity { return &s.act }

// Clock returns the initiator's clock domain.
func (s *Issuer) Clock() *sim.Clock { return s.clk }

// Issued returns the transactions issued so far.
func (s *Issuer) Issued() int64 { return s.issued }

// Completed returns the transactions completed so far.
func (s *Issuer) Completed() int64 { return s.completed }

// Bytes returns the bytes of the requests issued as payload so far.
func (s *Issuer) Bytes() int64 {
	var n int64
	for i := range s.tallies {
		n += s.tallies[i].bytes
	}
	return n
}

// InFlight returns how many tracked transactions await their final beat.
func (s *Issuer) InFlight() int { return len(s.tracked) }

// Oldest returns the tracked transaction issued longest ago and its issue
// cycle; ok is false when nothing is in flight. A source issues at most
// once per cycle, so the oldest is unique (the lower ID wins a tie only in
// a hand-made snapshot).
func (s *Issuer) Oldest() (id uint64, cycle int64, ok bool) {
	for rid, f := range s.tracked {
		if !ok || f.cycle < cycle || f.cycle == cycle && rid < id {
			id, cycle, ok = rid, f.cycle, true
		}
	}
	return id, cycle, ok
}

// LastIssueCycle returns the cycle of the newest issue, posted writes
// included (-1 when nothing was issued).
func (s *Issuer) LastIssueCycle() int64 { return s.lastIssue }

// LastCompleteCycle returns the cycle of the newest tracked completion (-1
// when nothing completed).
func (s *Issuer) LastCompleteCycle() int64 { return s.lastComplete }

// tallyOf returns the statistics row a tag books into.
func (s *Issuer) tallyOf(tag int) *tally {
	if len(s.tallies) == 1 {
		return &s.tallies[0]
	}
	return &s.tallies[tag]
}

// Issue mints a request from r, stamps its ID, origin and issue time, pushes
// it into the port (the caller has checked it has room) and fires the
// probe's RequestIssued. A posted write completes here; any other request is
// tracked under tag until its final response beat. payload says whether the
// request's bytes count toward the agent's byte total.
func (s *Issuer) Issue(tag int, r bus.Request, payload bool) {
	req := s.pool.Get()
	*req = r
	req.ID = s.ids.Next()
	req.Origin = s.origin
	req.IssueCycle = s.clk.Cycles()
	req.IssuePS = s.clk.NowPS()
	s.port.Req.Push(req)
	if pr := s.port.Probe; pr != nil {
		pr.RequestIssued(req)
	}
	s.lastIssue = req.IssueCycle
	t := s.tallyOf(tag)
	s.issued++
	t.issued++
	if req.Op == bus.OpRead {
		t.reads++
	} else {
		t.writes++
	}
	if payload {
		t.bytes += int64(req.Bytes())
	}
	if req.Op == bus.OpRead || !req.Posted {
		s.tracked[req.ID] = pending{tag, req.IssueCycle}
	} else {
		s.completed++ // posted writes complete at issue
		t.completed++
	}
}

// Collect consumes the port's response beats. A final beat nobody tracks is
// the ack of a write posted at issue that a non-posting fabric (AHB) turned
// into a non-posted one: it is its request's last reference, so it is
// recycled. A tracked final beat completes its transaction: the latency is
// booked, the probe and the attribution record are closed, the owner is
// handed the tag, and the request is recycled last.
func (s *Issuer) Collect() {
	for s.port.Resp.CanPop() {
		beat := s.port.Resp.Pop()
		if !beat.Last {
			continue
		}
		f, ok := s.tracked[beat.Req.ID]
		if !ok {
			s.pool.Put(beat.Req)
			continue
		}
		delete(s.tracked, beat.Req.ID)
		now := s.clk.Cycles()
		s.lastComplete = now
		t := s.tallyOf(f.tag)
		s.completed++
		t.completed++
		t.latency.Add(now - beat.Req.IssueCycle)
		if pr := s.port.Probe; pr != nil {
			pr.RequestCompleted(beat.Req, now)
		}
		if rec := beat.Req.Attr; rec != nil && s.attrCol != nil {
			s.attrCol.Finish(rec, s.clk.NowPS())
		}
		if s.done != nil {
			s.done(f.tag)
		}
		s.pool.Put(beat.Req)
	}
}

// AgentStats reports one agent's activity.
type AgentStats struct {
	Name        string
	Issued      int64
	Completed   int64
	Reads       int64
	Writes      int64
	Bytes       int64
	MeanLatency float64
	MaxLatency  int64
	// P50Latency/P90Latency are bucketed upper bounds on the latency
	// quantiles (see stats.Histogram.Quantile).
	P50Latency   int64
	P90Latency   int64
	CurrentPhase int
}

// Stats returns one row per agent, in Init order; CurrentPhase is left for
// the owner to fill.
func (s *Issuer) Stats() []AgentStats {
	out := make([]AgentStats, 0, len(s.tallies))
	for i := range s.tallies {
		t := &s.tallies[i]
		out = append(out, AgentStats{
			Name:        t.name,
			Issued:      t.issued,
			Completed:   t.completed,
			Reads:       t.reads,
			Writes:      t.writes,
			Bytes:       t.bytes,
			MeanLatency: t.latency.Mean(),
			MaxLatency:  t.latency.Max(),
			P50Latency:  t.latency.Quantile(0.5),
			P90Latency:  t.latency.Quantile(0.9),
		})
	}
	return out
}

// RegisterMetrics registers the initiator's telemetry under "ip.<name>.*" on
// the given clock domain: issue/complete counters and a request-FIFO depth
// gauge, then per agent its counters and completion-latency histogram under
// "ip.<name>.<agent>.*". Func-backed: the issue path is untouched.
func (s *Issuer) RegisterMetrics(m *metrics.Registry, clock string) {
	p := "ip." + s.Name() + "."
	m.CounterFunc(p+"issued", func() int64 { return s.issued })
	m.CounterFunc(p+"completed", func() int64 { return s.completed })
	m.GaugeFunc(p+"req_depth", clock, func() int64 { return int64(s.port.Req.Len()) })
	for i := range s.tallies {
		t := &s.tallies[i]
		ap := p + t.name + "."
		m.CounterFunc(ap+"issued", func() int64 { return t.issued })
		m.CounterFunc(ap+"completed", func() int64 { return t.completed })
		m.CounterFunc(ap+"bytes", func() int64 { return t.bytes })
		m.Histogram(ap+"latency", &t.latency)
	}
}

// EncodeIssuerState serializes the issue side (DESIGN.md §16): the owned
// port, the last-issue and last-completion cycles, the tracked (ID, tag,
// issue cycle) set sorted by ID so the stream is deterministic, the totals
// and every agent's tally.
func (s *Issuer) EncodeIssuerState(e *snapshot.Encoder) {
	bus.EncodeInitiatorPortState(e, s.port)
	e.I(s.lastIssue)
	e.I(s.lastComplete)
	ids := make([]uint64, 0, len(s.tracked))
	for id := range s.tracked {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.U(uint64(len(ids)))
	for _, id := range ids {
		f := s.tracked[id]
		e.U(id)
		e.I(int64(f.tag))
		e.I(f.cycle)
	}
	e.I(s.issued)
	e.I(s.completed)
	e.U(uint64(len(s.tallies)))
	for i := range s.tallies {
		t := &s.tallies[i]
		e.I(t.issued)
		e.I(t.completed)
		e.I(t.reads)
		e.I(t.writes)
		e.I(t.bytes)
		t.latency.EncodeState(e)
	}
}

// maxTracked bounds a decoded tracked set; no configuration gets anywhere
// near it, so anything larger is a corrupt stream.
const maxTracked = 1 << 22

// DecodeIssuerState restores an issue side serialized by EncodeIssuerState.
// tags is the owner's tag range: a tracked request tagged outside [0, tags),
// a last cycle below -1, or a tracked request issued before cycle 0 or after
// the last issue makes the stream corrupt.
func (s *Issuer) DecodeIssuerState(d *snapshot.Decoder, col *attr.Collector, tags int) {
	bus.DecodeInitiatorPortState(d, s.port, col)
	s.lastIssue = int64(d.Int(-1, math.MaxInt, "%s last issue cycle", s.Name()))
	s.lastComplete = int64(d.Int(-1, math.MaxInt, "%s last completion cycle", s.Name()))
	clear(s.tracked)
	n := d.N(maxTracked)
	for i := 0; i < n; i++ {
		id := d.U()
		tag := d.Int(0, tags-1, "%s in-flight request tag", s.Name())
		cycle := d.Int(0, int(s.lastIssue), "%s in-flight request issue cycle", s.Name())
		if d.Err() != nil {
			return
		}
		s.tracked[id] = pending{tag, int64(cycle)}
	}
	s.issued = d.I()
	s.completed = d.I()
	if na := d.N(len(s.tallies)); d.Err() == nil && na != len(s.tallies) {
		d.Corrupt("%s has %d agents, the snapshot %d", s.Name(), len(s.tallies), na)
	}
	if d.Err() != nil {
		return
	}
	for i := range s.tallies {
		t := &s.tallies[i]
		t.issued = d.I()
		t.completed = d.I()
		t.reads = d.I()
		t.writes = d.I()
		t.bytes = d.I()
		t.latency.DecodeState(d)
	}
}
