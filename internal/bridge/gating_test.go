package bridge

import (
	"fmt"
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/sim"
)

// Bridge-level backpressure lockstep (DESIGN.md §20): both gated sides of a
// bridge sleep while the destination drains slowly and the source collects
// slowly, so every crossing FIFO, the delay and latency lines, the
// outstanding limit and the emit queue fill up; the bridge must stay
// indistinguishable from one evaluated at every edge.

// feeder stands in for the source fabric: it pushes random requests into the
// bridge's target port whenever there is room, and collects upstream
// response beats only now and then.
type feeder struct {
	port   *bus.TargetPort
	rng    *sim.Rand
	width  int
	nextID uint64
}

func (f *feeder) Eval() {
	if f.rng.Intn(4) == 0 {
		for f.port.Resp.CanPop() {
			f.port.Resp.Pop()
		}
	}
	if !f.port.Req.CanPush() {
		return
	}
	f.nextID++
	r := &bus.Request{
		ID:           f.nextID,
		Src:          f.rng.Intn(3),
		Addr:         uint64(f.rng.Intn(1 << 20)),
		Beats:        f.rng.Range(1, 4),
		BytesPerBeat: f.width,
		MsgEnd:       true,
	}
	if f.rng.Bool(0.4) {
		r.Op = bus.OpWrite
		r.Posted = f.rng.Bool(0.3)
	}
	f.port.Req.Push(r)
}

func (f *feeder) Update() {}

// drain stands in for the destination fabric and memory: it takes a request
// from the bridge's initiator port only rarely, then answers it one beat per
// cycle (a single ack for a non-posted write, nothing for a posted one).
type drain struct {
	port *bus.InitiatorPort
	rng  *sim.Rand
	cur  *bus.Request
	left int
}

func (d *drain) Eval() {
	if d.cur == nil && d.port.Req.CanPop() && d.rng.Intn(12) == 0 {
		d.cur = d.port.Req.Pop()
		d.left = d.cur.Beats
		if d.cur.Op == bus.OpWrite {
			d.left = 1
			if d.cur.Posted {
				d.cur = nil
			}
		}
	}
	if d.cur == nil || !d.port.Resp.CanPush() {
		return
	}
	d.left--
	d.port.Resp.Push(bus.Beat{Req: d.cur, Last: d.left == 0})
	if d.left == 0 {
		d.cur = nil
	}
}

func (d *drain) Update() {}

func backlogBridge(cfg Config, srcPS, dstPS int64, full bool) (*sim.Kernel, *Bridge) {
	k := sim.NewKernel()
	k.SetFullEval(full)
	src := k.NewClockPeriodPS("src", srcPS)
	dst := src
	if dstPS != srcPS {
		dst = k.NewClockPeriodPS("dst", dstPS)
	}
	br := New("br", cfg, src, dst)
	src.Register(&feeder{port: br.TargetPort(), rng: sim.NewRand(21), width: cfg.SrcBytesPerBeat})
	src.Register(br.TargetSide)
	dst.Register(br.InitiatorSide)
	dst.Register(&drain{port: br.InitiatorPort(), rng: sim.NewRand(34)})
	return k, br
}

// backlogState renders the bridge's statistics, its internal queue depths
// and the statistics of all four port FIFOs.
func backlogState(br *Bridge) string {
	return fmt.Sprintf("%+v out=%d delay=%d reqX=%d respX=%d emit=%d held=%d %+v %+v %+v %+v",
		br.Stats(), br.outstanding, len(br.delayLine), br.reqX.Len(), br.respX.Len(), len(br.emitQ), len(br.held),
		br.tport.Req.Stats(), br.tport.Resp.Stats(), br.iport.Req.Stats(), br.iport.Resp.Stats())
}

// TestBridgeBackpressureLockstep runs gated bridges beside full-evaluation
// twins — blocking and split, in-order upstream, width conversion, one clock
// and two — comparing statistics and queue depths after every step. The
// "deep" split bridge allows more transactions in flight than its request
// crossing holds, so store-and-forward entries queue behind a full crossing
// and only the initiator side's pop can release them.
func TestBridgeBackpressureLockstep(t *testing.T) {
	inOrder := GenConv(1)
	inOrder.InOrderUpstream = true
	upsize := GenConv(2)
	upsize.SrcBytesPerBeat = 4
	downsize := Lightweight(1)
	downsize.DstBytesPerBeat = 4
	deep := GenConv(1)
	deep.MaxOutstanding, deep.ReqDepth = 16, 2
	cfgs := map[string]Config{
		"lightweight": Lightweight(1), "genconv": GenConv(1), "in-order": inOrder,
		"upsize": upsize, "downsize": downsize, "deep": deep,
	}
	for name, cfg := range cfgs {
		for _, clocks := range [][2]int64{{4000, 4000}, {5000, 4000}, {2500, 7519}} {
			cfg := cfg
			if clocks[0] == clocks[1] {
				cfg.SyncCycles = 0
			}
			t.Run(fmt.Sprintf("%s/%dps-%dps", name, clocks[0], clocks[1]), func(t *testing.T) {
				kg, g := backlogBridge(cfg, clocks[0], clocks[1], false)
				kf, f := backlogBridge(cfg, clocks[0], clocks[1], true)
				queuedBehind := 0
				for i := 0; i < 6000; i++ {
					kg.Step()
					kf.Step()
					kg.Settle()
					if gs, fs := backlogState(g), backlogState(f); gs != fs {
						t.Fatalf("step %d:\ngated %s\nfull  %s", i, gs, fs)
					}
					if !g.reqX.CanPush() && len(g.delayLine) > 0 {
						queuedBehind++
					}
				}
				if _, skipped := kg.EvalCounts(); skipped == 0 {
					t.Fatal("neither bridge side ever slept")
				}
				if name == "deep" && queuedBehind == 0 {
					t.Fatal("no store-and-forward entry ever queued behind a full request crossing")
				}
			})
		}
	}
}
