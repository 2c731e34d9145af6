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

// busy is an ungated component on a second clock, there only to select the
// kernel's dispatch tier.
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
	f.OwnedBy(&k1.act)
	a.Register(&source{rng: NewRand(7), out: f})
	a.Register(k1)
	if periodB > 0 {
		k.NewClockPeriodPS("b", periodB).Register(&busy{})
	}
	return k, a, k1
}

// TestGatingMatchesFullEvaluation steps a gated kernel and a full-evaluation
// kernel side by side on every dispatch tier and requires identical sink
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

// TestSleepRequestsRefused covers the cases where SleepUntil must leave the
// component awake: a push since the last request, a non-empty owned FIFO,
// a wake-up due at the next edge, and full evaluation.
func TestSleepRequestsRefused(t *testing.T) {
	k := NewKernel()
	c := k.NewClockPeriodPS("c", 1000)
	f := NewFifo[int]("f", 2)
	s := &sink{clk: c, in: f}
	f.OwnedBy(&s.act)
	c.Register(s)

	s.act.SleepUntil(c.Cycles() + 1)
	if s.act.Asleep() {
		t.Fatal("slept although the wake-up is due at the next edge")
	}
	f.Push(1)
	s.act.Sleep()
	if s.act.Asleep() {
		t.Fatal("slept right after a push into its FIFO")
	}
	f.Update()
	s.act.Sleep()
	if s.act.Asleep() {
		t.Fatal("slept with an entry in its FIFO")
	}
	f.Pop()
	f.Update()
	s.act.Sleep()
	if !s.act.Asleep() {
		t.Fatal("refused to sleep while idle")
	}
	k.SetFullEval(true)
	if s.act.Asleep() {
		t.Fatal("SetFullEval left a sleeper asleep")
	}
	s.act.Sleep()
	if s.act.Asleep() {
		t.Fatal("slept under full evaluation")
	}
}

// TestFifoWatchers checks the owner/reader bookkeeping: watchers are
// deduplicated, a third distinct watcher is a wiring bug, and deferred
// commit drops them.
func TestFifoWatchers(t *testing.T) {
	f := NewFifo[int]("f", 2)
	var owner, reader, third Activity
	f.OwnedBy(&owner)
	f.ReadBy(&owner)
	f.ReadBy(&reader)
	defer func() {
		if recover() == nil {
			t.Fatal("a third watcher did not panic")
		}
		f.MarkDeferred()
		if f.watchers != [2]*Activity{} {
			t.Fatal("MarkDeferred kept the watchers")
		}
	}()
	f.ReadBy(&third)
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
