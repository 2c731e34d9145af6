package sim

import (
	"fmt"
	"testing"
)

// source is an ungated producer: at pseudo-random edges it pushes a token
// into out, a FIFO owned and read by a gated sink on the same clock.
type source struct {
	rng  *Rand
	out  *Fifo[int]
	sent int
}

func (s *source) Eval() {
	if s.rng.Intn(23) == 0 && s.out.CanPush() {
		s.sent++
		s.out.Push(s.sent)
	}
}

func (s *source) Update() {}

// sink is a gated consumer with the per-edge counting of the platform's
// components: a cycle counter, and a countdown armed by every token whose
// expiry fires an event. It sleeps while its FIFO is empty, until the
// countdown expires or a token arrives.
type sink struct {
	act       Activity
	clk       *Clock
	in        *Fifo[int]
	cycles    int64
	countdown int64
	sum       int
	fired     int
	firedAt   []int64
}

func (k *sink) Eval() {
	k.cycles++
	for k.in.CanPop() {
		v := k.in.Pop()
		k.sum += v
		k.countdown = int64(3 + v%17)
	}
	if k.countdown > 0 {
		k.countdown--
		if k.countdown == 0 {
			k.fired++
			k.firedAt = append(k.firedAt, k.clk.Cycles())
		}
	}
}

func (k *sink) Update() {
	k.in.Update()
	if k.countdown > 0 {
		k.act.SleepUntil(k.clk.Cycles() + k.countdown)
		return
	}
	k.act.Sleep()
}

func (k *sink) Activity() *Activity { return &k.act }

func (k *sink) CreditIdle(n int64) {
	k.cycles += n
	k.countdown -= min(k.countdown, n)
}

// busy is an ungated component on a second clock, there only to move the
// kernel off its single-clock path.
type busy struct{ n int }

func (b *busy) Eval()   { b.n++ }
func (b *busy) Update() {}

// gatedRig builds a source/sink pair on clock "a" plus, when periodB > 0, a
// busy component on clock "b".
func gatedRig(periodA, periodB int64, full bool) (*Kernel, *Clock, *sink) {
	k := NewKernel()
	k.SetFullEval(full)
	a := k.NewClockPeriodPS("a", periodA)
	f := NewFifo[int]("in", 4)
	k1 := &sink{clk: a, in: f}
	f.PoppedBy(&k1.act)
	f.OwnedBy(&k1.act)
	a.Register(&source{rng: NewRand(7), out: f})
	a.Register(k1)
	if periodB > 0 {
		k.NewClockPeriodPS("b", periodB).Register(&busy{})
	}
	return k, a, k1
}

// TestGatingMatchesFullEvaluation steps a gated kernel and a full-evaluation
// kernel side by side on one clock and beside a second clock whose edges
// coincide often ("hyperperiod") or almost never ("generic"), and requires
// identical sink
// state (counters, countdown, FIFO statistics, event instants) after every
// step, with the sleeper's skipped edges settled before each comparison.
func TestGatingMatchesFullEvaluation(t *testing.T) {
	tiers := []struct {
		name             string
		periodA, periodB int64
	}{
		{"single-clock", 4000, 0},
		{"hyperperiod", 4000, 5000},
		{"generic", 4000, 7519},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			kg, _, g := gatedRig(tier.periodA, tier.periodB, false)
			kf, _, f := gatedRig(tier.periodA, tier.periodB, true)
			for i := 0; i < 20000; i++ {
				kg.Step()
				kf.Step()
				kg.Settle()
				got := fmt.Sprint(g.cycles, g.countdown, g.sum, g.fired, g.in.Stats())
				want := fmt.Sprint(f.cycles, f.countdown, f.sum, f.fired, f.in.Stats())
				if got != want {
					t.Fatalf("step %d: gated %s, full %s", i, got, want)
				}
			}
			if fmt.Sprint(g.firedAt) != fmt.Sprint(f.firedAt) {
				t.Fatal("events fired at different cycles")
			}
			if g.fired == 0 {
				t.Fatal("sink never fired an event")
			}
			_, skipped := kg.EvalCounts()
			if skipped == 0 {
				t.Fatal("gated kernel skipped nothing")
			}
			if _, s := kf.EvalCounts(); s != 0 {
				t.Fatalf("full evaluation skipped %d component-edges", s)
			}
		})
	}
}

// TestEvalCountsAddUp checks that every component-edge is counted exactly
// once, as evaluated or skipped.
func TestEvalCountsAddUp(t *testing.T) {
	k, a, _ := gatedRig(4000, 5000, false)
	k.RunCycles(a, 1000)
	ev, sk := k.EvalCounts()
	// Two components on clock a, one on clock b (5/4 slower).
	if want := int64(2*1000 + 800); ev+sk != want {
		t.Fatalf("evaluated %d + skipped %d = %d component-edges, want %d", ev, sk, ev+sk, want)
	}
}

// holder is a gated component with no behaviour of its own: the test drives
// its FIFO and its sleep requests by hand.
type holder struct{ act Activity }

func (h *holder) Eval()               {}
func (h *holder) Update()             {}
func (h *holder) Activity() *Activity { return &h.act }
func (h *holder) CreditIdle(int64)    {}

// TestSleepRequestsRefused covers the cases where SleepUntil must leave the
// component awake — a wake-up due at the next edge, a staged operation in an
// owned FIFO, a poke earlier in the same edge, and full evaluation — and the
// one it must grant with work queued: committed entries, nothing staged, no
// poke this edge.
func TestSleepRequestsRefused(t *testing.T) {
	k := NewKernel()
	c := k.NewClockPeriodPS("c", 1000)
	f := NewFifo[int]("f", 1)
	h := &holder{}
	f.PushedBy(&h.act)
	f.OwnedBy(&h.act)
	c.Register(h)
	k.Step()

	h.act.SleepUntil(c.Cycles() + 1)
	if h.act.Asleep() {
		t.Fatal("slept although the wake-up is due at the next edge")
	}
	f.Push(1)
	h.act.Sleep()
	if h.act.Asleep() {
		t.Fatal("slept with a push staged in its FIFO")
	}
	f.Update()
	h.act.Sleep()
	if !h.act.Asleep() {
		t.Fatal("refused to sleep with a committed entry and nothing staged")
	}
	f.Pop() // pokes the pusher awake
	if h.act.Asleep() {
		t.Fatal("a pop did not wake the pusher")
	}
	f.Update()
	h.act.Sleep()
	if h.act.Asleep() {
		t.Fatal("slept at the edge it was poked")
	}
	k.Step()
	h.act.Sleep()
	if !h.act.Asleep() {
		t.Fatal("an old poke still refused sleep an edge later")
	}
	k.SetFullEval(true)
	if h.act.Asleep() {
		t.Fatal("SetFullEval left a sleeper asleep")
	}
	h.act.Sleep()
	if h.act.Asleep() {
		t.Fatal("slept under full evaluation")
	}
}

// TestFifoWatchers checks the pusher/popper bookkeeping: declaring a side
// twice is harmless, a second component on a side is a wiring bug, an owner
// must be one of the sides, and deferred commit drops both links.
func TestFifoWatchers(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	f := NewFifo[int]("f", 2)
	var pusher, popper, third Activity
	f.PushedBy(&pusher)
	f.PushedBy(&pusher)
	f.PoppedBy(&popper)
	f.OwnedBy(&pusher)
	mustPanic("a second pusher", func() { f.PushedBy(&third) })
	mustPanic("a second popper", func() { f.PoppedBy(&third) })
	mustPanic("an owner on neither side", func() { f.OwnedBy(&third) })
	f.MarkDeferred()
	if f.pusher != nil || f.popper != nil {
		t.Fatal("MarkDeferred kept the pusher or popper link")
	}
}

// TestGatedKernelStepZeroAlloc extends the kernel's zero-allocation
// guarantee to sleeping, waking and settling components.
func TestGatedKernelStepZeroAlloc(t *testing.T) {
	k, a, s := gatedRig(4000, 7519, false)
	s.firedAt = make([]int64, 0, 1<<16)
	k.RunCycles(a, 1000)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 50; i++ {
			k.Step()
		}
		k.Settle()
	})
	if allocs != 0 {
		t.Fatalf("gated stepping allocated %.1f times per 50 steps", allocs)
	}
}
