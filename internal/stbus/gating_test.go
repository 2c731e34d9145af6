package stbus

import (
	"fmt"
	"reflect"
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/sim"
)

// Node-level backpressure lockstep (DESIGN.md §20): a gated node sleeps
// through long grant stalls against a slow target, and must stay
// indistinguishable from a node evaluated at every edge.

// source is an ungated initiator issuing random requests — random target,
// opcode, burst, message grouping and (optionally) priority — as fast as its
// port accepts them, and collecting responses only now and then, so its
// response FIFO fills up too.
type source struct {
	idx    int
	port   *bus.InitiatorPort
	rng    *sim.Rand
	nt     int
	prio   int
	nextID uint64
	msgSeq uint64
	msgLen int
}

func (s *source) Eval() {
	if s.rng.Intn(3) == 0 {
		for s.port.Resp.CanPop() {
			s.port.Resp.Pop()
		}
	}
	if !s.port.Req.CanPush() || s.rng.Intn(2) == 0 {
		return
	}
	s.nextID++
	r := &bus.Request{
		ID:           uint64(s.idx)<<32 | s.nextID,
		Addr:         uint64(s.rng.Intn(s.nt)) << 24,
		Beats:        s.rng.Range(1, 4),
		BytesPerBeat: 8,
		Prio:         s.prio,
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
	s.port.Req.Push(r)
}

func (s *source) Update() { s.port.Update() }

// slowTarget is an ungated target with a depth-1 request FIFO that takes a
// new request only rarely, then answers it one beat per cycle (nothing for
// a posted write).
type slowTarget struct {
	port  *bus.TargetPort
	rng   *sim.Rand
	cur   *bus.Request
	left  int
	typ   Type
	index int
}

func (m *slowTarget) Eval() {
	if m.cur == nil && m.port.Req.CanPop() && m.rng.Intn(16) == 0 {
		m.cur = m.port.Req.Pop()
		m.left = m.cur.Beats
		if m.cur.Op == bus.OpWrite {
			m.left = 1
			if m.cur.Posted && m.typ >= Type2 {
				m.cur = nil // completed at acceptance
			}
		}
	}
	if m.cur == nil || !m.port.Resp.CanPush() {
		return
	}
	m.left--
	m.port.Resp.Push(bus.Beat{Req: m.cur, Idx: m.index, Last: m.left == 0})
	m.index++
	if m.left == 0 {
		m.cur = nil
	}
}

func (m *slowTarget) Update() { m.port.Update() }

// stallRig is one node with three sources and nt slow targets.
type stallRig struct {
	k    *sim.Kernel
	node *Node
	srcs []*source
	tgts []*slowTarget
}

func newStallRig(cfg Config, nt int, unequal, full bool) *stallRig {
	k := sim.NewKernel()
	k.SetFullEval(full)
	clk := k.NewClock("clk", 250)
	var regions []bus.Region
	for t := 0; t < nt; t++ {
		regions = append(regions, bus.Region{Base: uint64(t) << 24, Size: 1 << 24, Target: t})
	}
	r := &stallRig{k: k, node: NewNode("n", cfg, bus.MustAddrMap(regions...))}
	for i := 0; i < 3; i++ {
		s := &source{idx: i, port: bus.NewInitiatorPort(fmt.Sprint("s", i), 2, 2), rng: sim.NewRand(uint64(11 + i)), nt: nt}
		if unequal {
			s.prio = i % 2
		}
		r.node.AttachInitiator(s.port)
		clk.Register(s)
		r.srcs = append(r.srcs, s)
	}
	clk.Register(r.node)
	for t := 0; t < nt; t++ {
		m := &slowTarget{port: bus.NewTargetPort(fmt.Sprint("t", t), 1, 2), rng: sim.NewRand(uint64(97 + t)), typ: r.node.cfg.Type}
		r.node.AttachTarget(m.port)
		clk.Register(m)
		r.tgts = append(r.tgts, m)
	}
	return r
}

// state renders everything the lockstep compares: the node's statistics,
// every port FIFO's statistics and each target's next grant.
func (r *stallRig) state() string {
	grants := make([]int, len(r.tgts))
	for t := range r.tgts {
		grants[t] = r.node.grantee(t)
	}
	out := fmt.Sprintf("%+v grants=%v", r.node.Stats(), grants)
	for _, s := range r.srcs {
		out += fmt.Sprintf(" %+v %+v", s.port.Req.Stats(), s.port.Resp.Stats())
	}
	for _, m := range r.tgts {
		out += fmt.Sprintf(" %+v %+v", m.port.Req.Stats(), m.port.Resp.Stats())
	}
	return out
}

// TestNodeBackpressureLockstep runs a gated node beside a full-evaluation
// twin on every protocol type, with message arbitration on and off, one and
// three targets, and equal and unequal priorities, comparing statistics,
// FIFO statistics and the next grant after every cycle.
func TestNodeBackpressureLockstep(t *testing.T) {
	for _, typ := range []Type{Type1, Type2, Type3} {
		for _, msg := range []bool{true, false} {
			for _, nt := range []int{1, 3} {
				for _, unequal := range []bool{false, true} {
					cfg := Config{Type: typ, MaxOutstanding: 4, MessageArbitration: msg, BytesPerBeat: 8}
					name := fmt.Sprintf("%v/msg=%v/targets=%d/unequal=%v", typ, msg, nt, unequal)
					t.Run(name, func(t *testing.T) {
						g := newStallRig(cfg, nt, unequal, false)
						f := newStallRig(cfg, nt, unequal, true)
						for c := 0; c < 4000; c++ {
							g.k.Step()
							f.k.Step()
							g.k.Settle()
							if gs, fs := g.state(), f.state(); gs != fs {
								t.Fatalf("cycle %d:\ngated %s\nfull  %s", c, gs, fs)
							}
						}
						if !reflect.DeepEqual(g.node.Stats(), f.node.Stats()) {
							t.Fatal("final statistics differ")
						}
						if g.node.Stats().GrantStalls == 0 {
							t.Fatal("the rig never stalled a grant")
						}
						_, skipped := g.k.EvalCounts()
						t.Logf("node slept through %d of 4000 cycles, %d grant stalls", skipped, g.node.Stats().GrantStalls)
						if skipped == 0 {
							t.Fatal("the gated node never slept")
						}
					})
				}
			}
		}
	}
}

// TestStallRRMatchesArbitration checks the closed-form round-robin advance
// against repeated stalled arbitrations, for one, two and three initiators
// sharing the top priority, every pointer start and stall counts up to a
// few rounds.
func TestStallRRMatchesArbitration(t *testing.T) {
	for _, prios := range [][]int{{0, 1, 0}, {1, 0, 1}, {0, 0, 0}} {
		r := newStallRig(Config{Type: Type3, MaxOutstanding: 4, BytesPerBeat: 8}, 1, false, true)
		for i, s := range r.srcs {
			s.port.Req.Push(&bus.Request{ID: uint64(i + 1), Beats: 1, BytesPerBeat: 8, Prio: prios[i], MsgEnd: true})
			s.port.Req.Update()
		}
		for rr := 0; rr < 3; rr++ {
			for k := int64(1); k <= 7; k++ {
				ch := &reqChannel{rr: rr, msgLock: -1}
				for j := int64(0); j < k; j++ {
					r.node.arbitrate(0, ch)
				}
				if got := r.node.stallRR(0, rr, k); got != ch.rr {
					t.Fatalf("prios %v rr=%d k=%d: closed form %d, arbitration %d", prios, rr, k, got, ch.rr)
				}
			}
		}
	}
}
