// Package testutil provides small scripted components shared by the test
// suites of the fabric, bridge, memory-controller and platform packages: a
// scripted initiator that replays a fixed request sequence, a probe target
// that records arrivals and answers instantly, and the backpressure rig
// that holds each gated fabric to full evaluation (backpressure.go).
package testutil

import (
	"mpsocsim/internal/bus"
	"mpsocsim/internal/sim"
)

// Scripted is an initiator that pushes a fixed request sequence as fast as
// its port accepts and records every response beat and completion cycle.
type Scripted struct {
	Port      *bus.InitiatorPort
	Clk       *sim.Clock
	Script    []*bus.Request
	Beats     []bus.Beat
	BeatCycle []int64
	Completed map[uint64]int64
	Issued    map[uint64]int64
	next      int
}

// NewScripted builds a scripted initiator with default port depths.
func NewScripted(name string, clk *sim.Clock, script []*bus.Request) *Scripted {
	return &Scripted{
		Port:      bus.NewInitiatorPort(name, 4, 8),
		Clk:       clk,
		Script:    script,
		Completed: map[uint64]int64{},
		Issued:    map[uint64]int64{},
	}
}

// Eval pushes the next scripted request if possible and drains responses.
func (s *Scripted) Eval() {
	if s.next < len(s.Script) && s.Port.Req.CanPush() {
		r := s.Script[s.next]
		r.IssueCycle = s.Clk.Cycles()
		s.Issued[r.ID] = s.Clk.Cycles()
		s.Port.Req.Push(r)
		s.next++
	}
	for s.Port.Resp.CanPop() {
		b := s.Port.Resp.Pop()
		s.Beats = append(s.Beats, b)
		s.BeatCycle = append(s.BeatCycle, s.Clk.Cycles())
		if b.Last {
			s.Completed[b.Req.ID] = s.Clk.Cycles()
		}
	}
}

// Update commits the port FIFOs.
func (s *Scripted) Update() { s.Port.Update() }

// ExpectedCompletions returns the number of completions the script will
// produce (posted writes never complete).
func (s *Scripted) ExpectedCompletions() int {
	n := 0
	for _, r := range s.Script {
		if !(r.Op == bus.OpWrite && r.Posted) {
			n++
		}
	}
	return n
}

// Done reports whether every expected completion has arrived.
func (s *Scripted) Done() bool { return len(s.Completed) >= s.ExpectedCompletions() }

// Probe is a target that records request arrival order and cycle and
// responds with all beats immediately (zero wait states).
type Probe struct {
	Port     *bus.TargetPort
	Clk      *sim.Clock
	Arrivals []*bus.Request
	ArriveAt []int64

	cur     *bus.Request
	beatIdx int
}

// NewProbe builds a probe target with the given input FIFO depth.
func NewProbe(name string, clk *sim.Clock, reqDepth int) *Probe {
	return &Probe{Port: bus.NewTargetPort(name, reqDepth, 8), Clk: clk}
}

// Eval records one arrival per cycle and streams response beats.
func (p *Probe) Eval() {
	if p.cur == nil && p.Port.Req.CanPop() {
		p.cur = p.Port.Req.Pop()
		p.Arrivals = append(p.Arrivals, p.cur)
		p.ArriveAt = append(p.ArriveAt, p.Clk.Cycles())
		p.beatIdx = 0
		if p.cur.Op == bus.OpWrite && p.cur.Posted {
			p.cur = nil
		}
	}
	if p.cur == nil || !p.Port.Resp.CanPush() {
		return
	}
	if p.cur.Op == bus.OpWrite {
		p.Port.Resp.Push(bus.Beat{Req: p.cur, Idx: 0, Last: true})
		p.cur = nil
		return
	}
	last := p.beatIdx == p.cur.Beats-1
	p.Port.Resp.Push(bus.Beat{Req: p.cur, Idx: p.beatIdx, Last: last})
	p.beatIdx++
	if last {
		p.cur = nil
	}
}

// Update commits the port FIFOs.
func (p *Probe) Update() { p.Port.Update() }

// Read builds a read request.
func Read(id, addr uint64, beats, bytesPerBeat int) *bus.Request {
	return &bus.Request{ID: id, Op: bus.OpRead, Addr: addr, Beats: beats, BytesPerBeat: bytesPerBeat}
}

// Write builds a write request.
func Write(id, addr uint64, beats, bytesPerBeat int, posted bool) *bus.Request {
	return &bus.Request{ID: id, Op: bus.OpWrite, Addr: addr, Beats: beats, BytesPerBeat: bytesPerBeat, Posted: posted}
}
