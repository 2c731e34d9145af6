package stbus

import (
	"reflect"
	"testing"
	"testing/quick"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/mem"
	"mpsocsim/internal/sim"
)

// scripted is a minimal initiator for fabric tests: it pushes a scripted
// request sequence as fast as the fabric accepts and records responses.
type scripted struct {
	port      *bus.InitiatorPort
	clk       *sim.Clock
	script    []*bus.Request
	i         int
	beats     []bus.Beat
	completed map[uint64]int64 // request ID -> completion cycle
	issued    map[uint64]int64
}

func newScripted(name string, clk *sim.Clock, script []*bus.Request) *scripted {
	return &scripted{
		port:      bus.NewInitiatorPort(name, 4, 8),
		clk:       clk,
		script:    script,
		completed: map[uint64]int64{},
		issued:    map[uint64]int64{},
	}
}

func (s *scripted) Eval() {
	if s.i < len(s.script) && s.port.Req.CanPush() {
		r := s.script[s.i]
		r.IssueCycle = s.clk.Cycles()
		s.issued[r.ID] = s.clk.Cycles()
		s.port.Req.Push(r)
		s.i++
	}
	for s.port.Resp.CanPop() {
		b := s.port.Resp.Pop()
		s.beats = append(s.beats, b)
		if b.Last {
			s.completed[b.Req.ID] = s.clk.Cycles()
		}
	}
}

func (s *scripted) Update() { s.port.Update() }

// bench is a one-node testbench with m memories and the given initiators.
type bench struct {
	k    *sim.Kernel
	clk  *sim.Clock
	node *Node
	mems []*mem.Memory
	inis []*scripted
}

func newBench(t *testing.T, cfg Config, memCfg mem.Config, nMems int, scripts ...[]*bus.Request) *bench {
	t.Helper()
	k := sim.NewKernel()
	clk := k.NewClock("clk", 250)
	var regions []bus.Region
	for i := 0; i < nMems; i++ {
		regions = append(regions, bus.Region{Base: uint64(i) << 24, Size: 1 << 24, Target: i})
	}
	node := NewNode("n0", cfg, bus.MustAddrMap(regions...))
	b := &bench{k: k, clk: clk, node: node}
	for i := 0; i < nMems; i++ {
		m := mem.New("mem", memCfg)
		node.AttachTarget(m.Port())
		b.mems = append(b.mems, m)
	}
	for _, sc := range scripts {
		ini := newScripted("ini", clk, sc)
		node.AttachInitiator(ini.port)
		b.inis = append(b.inis, ini)
	}
	for _, ini := range b.inis {
		clk.Register(ini)
	}
	clk.Register(node)
	for _, m := range b.mems {
		clk.Register(m)
	}
	return b
}

// runToCompletion runs until every non-posted request of every initiator has
// completed; it fails the test on timeout.
func (b *bench) runToCompletion(t *testing.T) {
	t.Helper()
	pendingLeft := func() bool {
		for _, ini := range b.inis {
			want := 0
			for _, r := range ini.script {
				if !(r.Op == bus.OpWrite && r.Posted) {
					want++
				}
			}
			if len(ini.completed) < want {
				return true
			}
		}
		return false
	}
	if !b.k.RunWhile(pendingLeft, 10_000_000_000) { // 10 ms sim time
		t.Fatal("testbench timed out with transactions pending")
	}
}

func rd(id uint64, addr uint64, beats int) *bus.Request {
	return &bus.Request{ID: id, Op: bus.OpRead, Addr: addr, Beats: beats, BytesPerBeat: 8}
}

func wr(id uint64, addr uint64, beats int, posted bool) *bus.Request {
	return &bus.Request{ID: id, Op: bus.OpWrite, Addr: addr, Beats: beats, BytesPerBeat: 8, Posted: posted}
}

func TestSingleReadCompletes(t *testing.T) {
	b := newBench(t, DefaultConfig(), mem.DefaultConfig(), 1, []*bus.Request{rd(1, 0x100, 4)})
	b.runToCompletion(t)
	ini := b.inis[0]
	if len(ini.beats) != 4 {
		t.Fatalf("got %d beats, want 4", len(ini.beats))
	}
	for i, beat := range ini.beats {
		if beat.Idx != i {
			t.Fatalf("beat %d out of order (idx %d)", i, beat.Idx)
		}
	}
	if ini.completed[1] <= ini.issued[1] {
		t.Fatal("completion must be after issue")
	}
}

func TestType1BlocksSecondTransaction(t *testing.T) {
	cfg := Config{Type: Type1, MessageArbitration: false, BytesPerBeat: 8}
	b := newBench(t, cfg, mem.DefaultConfig(), 1,
		[]*bus.Request{rd(1, 0x100, 4), rd(2, 0x200, 4)})
	maxOut := 0
	b.clk.Register(&sim.ClockedFunc{OnEval: func() {
		if o := b.node.Outstanding(0); o > maxOut {
			maxOut = o
		}
	}})
	b.runToCompletion(t)
	if maxOut != 1 {
		t.Fatalf("Type 1 max outstanding = %d, want 1", maxOut)
	}
	ini := b.inis[0]
	if ini.completed[2] <= ini.completed[1] {
		t.Fatal("second transaction must complete after first")
	}
}

func TestType3MultipleOutstanding(t *testing.T) {
	cfg := Config{Type: Type3, MaxOutstanding: 4, BytesPerBeat: 8}
	// slow memory so requests pile up
	b := newBench(t, cfg, mem.Config{WaitStates: 6, ReqDepth: 4, RespDepth: 2}, 1,
		[]*bus.Request{rd(1, 0x100, 2), rd(2, 0x200, 2), rd(3, 0x300, 2), rd(4, 0x400, 2)})
	maxOut := 0
	b.clk.Register(&sim.ClockedFunc{OnEval: func() {
		if o := b.node.Outstanding(0); o > maxOut {
			maxOut = o
		}
	}})
	b.runToCompletion(t)
	if maxOut < 2 {
		t.Fatalf("Type 3 should pipeline transactions, max outstanding = %d", maxOut)
	}
}

func TestType2InOrderSingleTargetWindow(t *testing.T) {
	// Requests alternate between two targets; Type 2 must never hold
	// outstanding transactions at two targets at once, and responses must
	// arrive in issue order.
	cfg := Config{Type: Type2, MaxOutstanding: 4, BytesPerBeat: 8}
	script := []*bus.Request{
		rd(1, 0x0000_0100, 2), rd(2, 0x0100_0000, 2),
		rd(3, 0x0000_0200, 2), rd(4, 0x0100_0100, 2),
	}
	b := newBench(t, cfg, mem.DefaultConfig(), 2, script)
	b.runToCompletion(t)
	ini := b.inis[0]
	var lastDone int64 = -1
	for id := uint64(1); id <= 4; id++ {
		c := ini.completed[id]
		if c < lastDone {
			t.Fatalf("response order violated: req %d done at %d, previous at %d", id, c, lastDone)
		}
		lastDone = c
	}
}

func TestType3OutOfOrderAcrossTargets(t *testing.T) {
	// Target 0 is slow, target 1 fast. A Type 3 initiator issuing to the
	// slow then fast target should get the fast response first.
	k := sim.NewKernel()
	clk := k.NewClock("clk", 250)
	amap := bus.MustAddrMap(
		bus.Region{Base: 0, Size: 1 << 24, Target: 0},
		bus.Region{Base: 1 << 24, Size: 1 << 24, Target: 1},
	)
	node := NewNode("n0", Config{Type: Type3, MaxOutstanding: 4, BytesPerBeat: 8}, amap)
	slow := mem.New("slow", mem.Config{WaitStates: 20, ReqDepth: 2, RespDepth: 2})
	fast := mem.New("fast", mem.Config{WaitStates: 0, ReqDepth: 2, RespDepth: 2})
	node.AttachTarget(slow.Port())
	node.AttachTarget(fast.Port())
	ini := newScripted("ini", clk, []*bus.Request{rd(1, 0, 2), rd(2, 1<<24, 2)})
	node.AttachInitiator(ini.port)
	clk.Register(ini)
	clk.Register(node)
	clk.Register(slow)
	clk.Register(fast)
	k.RunWhile(func() bool { return len(ini.completed) < 2 }, 1e9)
	if len(ini.completed) != 2 {
		t.Fatal("timed out")
	}
	if ini.completed[2] >= ini.completed[1] {
		t.Fatalf("Type 3 should deliver fast-target response first: t1=%d t2=%d",
			ini.completed[1], ini.completed[2])
	}
}

func TestPostedWritesRetireAtAcceptance(t *testing.T) {
	cfg := Config{Type: Type2, MaxOutstanding: 2, BytesPerBeat: 8}
	// Slow memory: posted writes must not block the initiator's window
	// for long since they retire when the node accepts them.
	b := newBench(t, cfg, mem.Config{WaitStates: 4, ReqDepth: 4, RespDepth: 2}, 1,
		[]*bus.Request{
			wr(1, 0x100, 2, true), wr(2, 0x200, 2, true),
			wr(3, 0x300, 2, true), rd(4, 0x400, 1),
		})
	b.runToCompletion(t)
	if len(b.inis[0].completed) != 1 {
		t.Fatalf("only the read should produce a completion, got %d", len(b.inis[0].completed))
	}
	if b.node.Outstanding(0) != 0 {
		t.Fatalf("outstanding = %d after completion, want 0", b.node.Outstanding(0))
	}
}

func TestType1ForcesNonPostedWrites(t *testing.T) {
	cfg := Config{Type: Type1, BytesPerBeat: 8}
	b := newBench(t, cfg, mem.DefaultConfig(), 1,
		[]*bus.Request{wr(1, 0x100, 2, true), rd(2, 0x200, 1)})
	// The posted flag is cleared by the Type 1 node, so the write gets an
	// ack and appears in completed.
	b.k.RunWhile(func() bool { return len(b.inis[0].completed) < 2 }, 1e9)
	if len(b.inis[0].completed) != 2 {
		t.Fatal("Type 1 write should have been converted to non-posted and acked")
	}
}

func TestMessageArbitrationKeepsMessagesTogether(t *testing.T) {
	// Two initiators each send a 3-request message. With message
	// arbitration the target must see each message contiguously.
	mkMsg := func(base uint64, idBase uint64, seq uint64) []*bus.Request {
		var s []*bus.Request
		for i := 0; i < 3; i++ {
			r := rd(idBase+uint64(i), base+uint64(i)*0x40, 2)
			r.MsgSeq = seq
			r.MsgEnd = i == 2
			s = append(s, r)
		}
		return s
	}
	cfg := Config{Type: Type3, MaxOutstanding: 8, MessageArbitration: true, BytesPerBeat: 8}

	k := sim.NewKernel()
	clk := k.NewClock("clk", 250)
	node := NewNode("n0", cfg, bus.Single(0))
	// intercepting target records arrival order
	tp := bus.NewTargetPort("probe", 16, 16)
	node.AttachTarget(tp)
	var arrival []uint64
	probe := &sim.ClockedFunc{
		OnEval: func() {
			for tp.Req.CanPop() {
				r := tp.Req.Pop()
				arrival = append(arrival, r.ID)
				// respond instantly with one beat
				if tp.Resp.CanPush() {
					tp.Resp.Push(bus.Beat{Req: r, Idx: 0, Last: true})
				}
			}
		},
		OnUpdate: tp.Update,
	}
	a := newScripted("a", clk, mkMsg(0x1000, 10, 1))
	bIni := newScripted("b", clk, mkMsg(0x2000, 20, 2))
	node.AttachInitiator(a.port)
	node.AttachInitiator(bIni.port)
	clk.Register(a)
	clk.Register(bIni)
	clk.Register(node)
	clk.Register(probe)
	k.RunWhile(func() bool { return len(arrival) < 6 }, 1e9)
	if len(arrival) != 6 {
		t.Fatalf("got %d arrivals, want 6", len(arrival))
	}
	// each initiator's 3 requests must be contiguous
	firstOwner := arrival[0] / 10
	for i := 1; i < 3; i++ {
		if arrival[i]/10 != firstOwner {
			t.Fatalf("message interleaved: arrival order %v", arrival)
		}
	}
	for i := 4; i < 6; i++ {
		if arrival[i]/10 != arrival[3]/10 {
			t.Fatalf("message interleaved: arrival order %v", arrival)
		}
	}
}

func TestPriorityArbitration(t *testing.T) {
	// Initiator 1 has higher priority; with both queued, its request is
	// served first (after any in-progress transfer).
	cfg := Config{Type: Type3, MaxOutstanding: 8, MessageArbitration: false, BytesPerBeat: 8}
	lo := rd(1, 0x100, 2)
	hi := rd(2, 0x200, 2)
	hi.Prio = 7
	b := newBench(t, cfg, mem.Config{WaitStates: 2, ReqDepth: 4, RespDepth: 2}, 1,
		[]*bus.Request{lo}, []*bus.Request{hi})
	b.runToCompletion(t)
	// Both issued cycle 0; the high-priority one should not finish last by
	// a wide margin. Check service order at the memory: completion order
	// equals service order for a single in-order memory.
	if b.inis[1].completed[2] > b.inis[0].completed[1] {
		t.Fatalf("high-priority request completed after low-priority one (%d vs %d)",
			b.inis[1].completed[2], b.inis[0].completed[1])
	}
}

func TestWriteOccupiesRequestChannel(t *testing.T) {
	// A long write from initiator 0 delays initiator 1's read by at least
	// the write's beat count on the request channel.
	cfg := Config{Type: Type3, MaxOutstanding: 8, MessageArbitration: false, BytesPerBeat: 8}
	b := newBench(t, cfg, mem.Config{WaitStates: 0, ReqDepth: 8, RespDepth: 8}, 1,
		[]*bus.Request{wr(1, 0x100, 16, false)}, []*bus.Request{rd(2, 0x200, 1)})
	b.runToCompletion(t)
	s := b.node.Stats()
	// request channel busy for >= 16 (write beats) + 1 (read) cycles
	if s.ReqChannelBusy[0] < 17 {
		t.Fatalf("request channel busy %d cycles, want >= 17", s.ReqChannelBusy[0])
	}
}

func TestSplitTransactionsOverlapAcrossTargets(t *testing.T) {
	// Two initiators to two different memories: total time must be far
	// less than 2x the single-pair time (parallel request/response flows).
	single := func() int64 {
		b := newBench(t, DefaultConfig(), mem.Config{WaitStates: 1, ReqDepth: 2, RespDepth: 2}, 1,
			[]*bus.Request{rd(1, 0x10, 8), rd(2, 0x20, 8), rd(3, 0x30, 8), rd(4, 0x40, 8)})
		b.runToCompletion(t)
		return b.clk.Cycles()
	}()
	dual := func() int64 {
		s0 := []*bus.Request{rd(1, 0x10, 8), rd(2, 0x20, 8), rd(3, 0x30, 8), rd(4, 0x40, 8)}
		s1 := []*bus.Request{rd(11, 1<<24|0x10, 8), rd(12, 1<<24|0x20, 8), rd(13, 1<<24|0x30, 8), rd(14, 1<<24|0x40, 8)}
		b := newBench(t, DefaultConfig(), mem.Config{WaitStates: 1, ReqDepth: 2, RespDepth: 2}, 2, s0, s1)
		b.runToCompletion(t)
		return b.clk.Cycles()
	}()
	if float64(dual) > 1.5*float64(single) {
		t.Fatalf("dual-target run (%d cycles) should overlap with single (%d cycles)", dual, single)
	}
}

func TestStatsUtilizationBounds(t *testing.T) {
	b := newBench(t, DefaultConfig(), mem.DefaultConfig(), 1,
		[]*bus.Request{rd(1, 0x100, 4), wr(2, 0x200, 4, false)})
	b.runToCompletion(t)
	s := b.node.Stats()
	if u := s.ReqUtilization(0); u <= 0 || u > 1 {
		t.Fatalf("req utilization %v out of (0,1]", u)
	}
	if u := s.RespUtilization(0); u <= 0 || u > 1 {
		t.Fatalf("resp utilization %v out of (0,1]", u)
	}
	if s.ReqUtilization(9) != 0 || s.RespUtilization(9) != 0 {
		t.Fatal("out-of-range channel utilization must be 0")
	}
	if s.Forwarded != 2 {
		t.Fatalf("forwarded = %d, want 2", s.Forwarded)
	}
}

func TestTypeString(t *testing.T) {
	if Type1.String() != "T1" || Type2.String() != "T2" || Type3.String() != "T3" {
		t.Fatal("Type String broken")
	}
}

// Property: any random mix of reads and non-posted writes from up to 4
// initiators to up to 2 memories completes, with one Last beat per request
// and read beat counts matching burst lengths.
func TestPropertyAllTransactionsComplete(t *testing.T) {
	prop := func(seed uint64, nReq8, nIni8, typ8 uint8) bool {
		rng := sim.NewRand(seed)
		nIni := int(nIni8%4) + 1
		nReq := int(nReq8%12) + 1
		typ := Type(int(typ8%3) + 1)
		cfg := Config{Type: typ, MaxOutstanding: 4, MessageArbitration: seed%2 == 0, BytesPerBeat: 8}
		var scripts [][]*bus.Request
		id := uint64(1)
		total := 0
		for i := 0; i < nIni; i++ {
			var s []*bus.Request
			for j := 0; j < nReq; j++ {
				beats := rng.Range(1, 8)
				addr := uint64(rng.Intn(2)) << 24
				addr |= uint64(rng.Intn(1 << 12))
				if rng.Bool(0.5) {
					s = append(s, rd(id, addr, beats))
				} else {
					s = append(s, wr(id, addr, beats, false))
				}
				id++
				total++
			}
			scripts = append(scripts, s)
		}
		b := newBench(t, cfg, mem.Config{WaitStates: 1, ReqDepth: 2, RespDepth: 4}, 2, scripts...)
		done := func() int {
			n := 0
			for _, ini := range b.inis {
				n += len(ini.completed)
			}
			return n
		}
		b.k.RunWhile(func() bool { return done() < total }, 1e10)
		if done() != total {
			return false
		}
		for _, ini := range b.inis {
			readBeats := map[uint64]int{}
			for _, beat := range ini.beats {
				if beat.Req.Op == bus.OpRead {
					readBeats[beat.Req.ID]++
				}
			}
			for _, r := range ini.script {
				if r.Op == bus.OpRead && readBeats[r.ID] != r.Beats {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestResponseSweepTakesExposedBeats pins the response sweep's order, cycle
// by cycle: a pop exposes the target's next beat, which a later initiator in
// the sweep takes in the same cycle, while an initiator whose turn has
// passed waits for the next cycle. Under Type 2 a head that is not next in
// its initiator's issue order waits even though the initiator has room, and
// the initiator takes its older beat from the other target first.
func TestResponseSweepTakesExposedBeats(t *testing.T) {
	type head struct {
		src int
		id  uint64
	}
	rows := []struct {
		name  string
		typ   Type
		heads [][]head   // per target, oldest first
		order [][]uint64 // per initiator, issue order of its outstanding IDs
		want  [][]int    // beats forwarded per initiator, cycle by cycle
	}{
		{
			name:  "one target",
			typ:   Type3,
			heads: [][]head{{{1, 1}, {2, 2}, {0, 3}}},
			want:  [][]int{{0, 1, 1}, {1, 0, 0}},
		},
		{
			name:  "two targets, Type 2 out-of-order head waits",
			typ:   Type2,
			heads: [][]head{{{0, 11}}, {{1, 20}, {0, 10}, {2, 30}}},
			order: [][]uint64{{10, 11}, {20}, {30}},
			want:  [][]int{{0, 1, 0}, {1, 0, 1}, {1, 0, 0}, {0, 0, 0}},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Type = row.typ
			n := NewNode("n0", cfg, bus.Single(0))
			var inis []*bus.InitiatorPort
			for i := 0; i < 3; i++ {
				p := bus.NewInitiatorPort("ini", 2, 4)
				n.AttachInitiator(p)
				inis = append(inis, p)
			}
			var tgts []*bus.TargetPort
			for _, hs := range row.heads {
				tp := bus.NewTargetPort("tgt", 1, 4)
				n.AttachTarget(tp)
				for _, h := range hs {
					tp.Resp.Push(bus.Beat{Req: &bus.Request{ID: h.id, Src: h.src}, Last: true})
				}
				tp.Update()
				tgts = append(tgts, tp)
			}
			for i, ids := range row.order {
				n.order[i] = append(n.order[i], ids...)
				n.outstanding[i] = len(ids)
			}
			for c, want := range row.want {
				n.Eval()
				got := make([]int, len(inis))
				for i, p := range inis {
					got[i] = p.Resp.Staged()
					p.Update()
				}
				for _, tp := range tgts {
					tp.Update()
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cycle %d: beats forwarded per initiator = %v, want %v", c, got, want)
				}
			}
		})
	}
}
