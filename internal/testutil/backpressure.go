package testutil

import (
	"fmt"
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/sim"
)

// Fabric backpressure rig (DESIGN.md §20): a gated fabric sleeps through
// long stalls against slow targets, and must stay indistinguishable from the
// same fabric evaluated at every edge. The rig drives any bus.Fabric from
// three Sources into a row of SlowTargets, so every fabric runs the same
// lockstep.

// Source is an ungated initiator issuing random requests — random target,
// opcode, burst, message grouping and priority Prio — as fast as its port
// accepts them, and collecting responses only now and then, so its response
// FIFO fills up too.
type Source struct {
	Port *bus.InitiatorPort
	Prio int

	idx    int
	rng    *sim.Rand
	nt     int
	nextID uint64
	msgSeq uint64
	msgLen int
}

// NewSource builds source idx addressing nt targets (see Regions), with a
// depth-2 request and response FIFO.
func NewSource(idx, nt int, seed uint64) *Source {
	return &Source{Port: bus.NewInitiatorPort(fmt.Sprint("s", idx), 2, 2), idx: idx, rng: sim.NewRand(seed), nt: nt}
}

// Eval drains the response FIFO on one edge in three and issues a request
// on one edge in two.
func (s *Source) Eval() {
	if s.rng.Intn(3) == 0 {
		for s.Port.Resp.CanPop() {
			s.Port.Resp.Pop()
		}
	}
	if !s.Port.Req.CanPush() || s.rng.Intn(2) == 0 {
		return
	}
	s.nextID++
	r := &bus.Request{
		ID:           uint64(s.idx)<<32 | s.nextID,
		Addr:         uint64(s.rng.Intn(s.nt)) << 24,
		Beats:        s.rng.Range(1, 4),
		BytesPerBeat: 8,
		Prio:         s.Prio,
		MsgEnd:       true,
	}
	if s.rng.Bool(0.4) {
		r.Op = bus.OpWrite
		r.Posted = s.rng.Bool(0.5)
	}
	if s.msgLen == 0 {
		s.msgLen = s.rng.Range(1, 3)
		s.msgSeq++
	}
	s.msgLen--
	r.MsgSeq = s.msgSeq
	r.MsgEnd = s.msgLen == 0
	s.Port.Req.Push(r)
}

// Update commits the port FIFOs.
func (s *Source) Update() { s.Port.Update() }

// SlowTarget is an ungated target with a depth-1 request FIFO that takes a
// new request only rarely, then answers it one beat per cycle: one beat for
// a write, none for a posted write when the fabric completes those at
// acceptance.
type SlowTarget struct {
	Port *bus.TargetPort

	rng    *sim.Rand
	cur    *bus.Request
	left   int
	posted bool
	index  int
}

// NewSlowTarget builds target idx. posted says whether a posted write
// completes at acceptance, with no response.
func NewSlowTarget(idx int, seed uint64, posted bool) *SlowTarget {
	return &SlowTarget{Port: bus.NewTargetPort(fmt.Sprint("t", idx), 1, 2), rng: sim.NewRand(seed), posted: posted}
}

// Eval takes a request on one edge in sixteen when idle and emits the next
// response beat when the response FIFO has room.
func (m *SlowTarget) Eval() {
	if m.cur == nil && m.Port.Req.CanPop() && m.rng.Intn(16) == 0 {
		m.cur = m.Port.Req.Pop()
		m.left = m.cur.Beats
		if m.cur.Op == bus.OpWrite {
			m.left = 1
			if m.cur.Posted && m.posted {
				m.cur = nil // completed at acceptance
			}
		}
	}
	if m.cur == nil || !m.Port.Resp.CanPush() {
		return
	}
	m.left--
	m.Port.Resp.Push(bus.Beat{Req: m.cur, Idx: m.index, Last: m.left == 0})
	m.index++
	if m.left == 0 {
		m.cur = nil
	}
}

// Update commits the port FIFOs.
func (m *SlowTarget) Update() { m.Port.Update() }

// Regions returns the address map of nt targets, target t owning the 16 MiB
// at t<<24 — the addresses a Source draws.
func Regions(nt int) *bus.AddrMap {
	var regions []bus.Region
	for t := 0; t < nt; t++ {
		regions = append(regions, bus.Region{Base: uint64(t) << 24, Size: 1 << 24, Target: t})
	}
	return bus.MustAddrMap(regions...)
}

// Backpressure is one fabric with three Sources and nt SlowTargets on a
// single clock, registered in that order.
type Backpressure struct {
	K       *sim.Kernel
	Sources []*Source
	Targets []*SlowTarget
}

// NewBackpressure wires fab, whose address map decodes at most the
// Regions(nt) the Sources draw from, into a rig; posted is the targets'
// posted-write rule and full switches the kernel to full evaluation.
func NewBackpressure(fab bus.Fabric, nt int, posted, full bool) *Backpressure {
	r := &Backpressure{K: sim.NewKernel()}
	r.K.SetFullEval(full)
	clk := r.K.NewClock("clk", 250)
	for i := 0; i < 3; i++ {
		s := NewSource(i, nt, uint64(11+i))
		fab.AttachInitiator(s.Port)
		clk.Register(s)
		r.Sources = append(r.Sources, s)
	}
	clk.Register(fab)
	for t := 0; t < nt; t++ {
		m := NewSlowTarget(t, uint64(97+t), posted)
		fab.AttachTarget(m.Port)
		clk.Register(m)
		r.Targets = append(r.Targets, m)
	}
	return r
}

// PortState renders the committed occupancy and head entry of every port
// FIFO.
func (r *Backpressure) PortState() string {
	var out string
	for _, s := range r.Sources {
		out += " " + PortFifos(s.Port.Req, s.Port.Resp)
	}
	for _, m := range r.Targets {
		out += " " + PortFifos(m.Port.Req, m.Port.Resp)
	}
	return out
}

// PortFifos renders the committed occupancy and head entry of a port's
// request and response FIFOs — all the other side can see of them — as
// "len/head-ID len/head-ID.beat", with "-" for an empty FIFO's head.
func PortFifos(req *bus.Queue, resp *bus.BeatQueue) string {
	out := fmt.Sprintf("%d/", req.Len())
	if req.CanPop() {
		out += fmt.Sprint(req.Peek().ID)
	} else {
		out += "-"
	}
	out += fmt.Sprintf(" %d/", resp.Len())
	if resp.CanPop() {
		b := resp.Peek()
		out += fmt.Sprintf("%d.%d", b.Req.ID, b.Idx)
	} else {
		out += "-"
	}
	return out
}

// Lockstep steps a gated rig and its full-evaluation twin for the given
// cycles, settling the gated kernel and comparing the rendered states after
// every cycle, and returns the component-edges the gated kernel skipped. It
// fails the test at the first divergence.
func Lockstep(t testing.TB, cycles int, gated, full *Backpressure, gatedState, fullState func() string) int64 {
	t.Helper()
	for c := 0; c < cycles; c++ {
		gated.K.Step()
		full.K.Step()
		gated.K.Settle()
		if gs, fs := gatedState(), fullState(); gs != fs {
			t.Fatalf("cycle %d:\ngated %s\nfull  %s", c, gs, fs)
		}
	}
	_, skipped := gated.K.EvalCounts()
	return skipped
}
