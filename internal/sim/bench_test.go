package sim

import (
	"fmt"
	"math"
	"testing"
)

func BenchmarkKernelStep(b *testing.B) {
	k := NewKernel()
	clk := k.NewClock("c", 250)
	for i := 0; i < 16; i++ {
		clk.Register(&ClockedFunc{OnEval: func() {}, OnUpdate: func() {}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

func BenchmarkKernelStepTwoDomains(b *testing.B) {
	k := NewKernel()
	fast := k.NewClock("fast", 400)
	slow := k.NewClock("slow", 100)
	for i := 0; i < 8; i++ {
		fast.Register(&ClockedFunc{OnEval: func() {}})
		slow.Register(&ClockedFunc{OnEval: func() {}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// napper is a gated component that sleeps for a random spell of tens of
// edges after each awake edge.
type napper struct {
	act Activity
	clk *Clock
	rng *Rand
}

func (n *napper) Eval() {}

func (n *napper) Update() {
	n.act.SleepUntil(n.clk.Cycles() + 10 + int64(n.rng.Intn(50)))
}

func (n *napper) Activity() *Activity { return &n.act }
func (n *napper) CreditIdle(int64)    {}

// BenchmarkKernelAdvance times one Advance on the reference platform's seven
// clock periods: an ungated component on the central (pace) clock, and two
// nappers on each other clock.
func BenchmarkKernelAdvance(b *testing.B) {
	k := NewKernel()
	central := k.NewClockPeriodPS("central", 4000)
	central.Register(&ClockedFunc{OnEval: func() {}})
	periods := []int64{2500, 4000, 5000, 6024, 6024, 7519}
	for i, p := range periods {
		clk := k.NewClockPeriodPS(fmt.Sprintf("c%d", i), p)
		for j := 0; j < 2; j++ {
			clk.Register(&napper{clk: clk, rng: NewRand(uint64(2*i + j + 1))})
		}
	}
	for i := 0; i < 1000; i++ {
		k.Advance(central, math.MaxInt64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Advance(central, math.MaxInt64)
	}
}

func BenchmarkFifoPushPop(b *testing.B) {
	f := NewFifo[int]("f", 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.CanPush() {
			f.Push(i)
		}
		if f.CanPop() {
			f.Pop()
		}
		f.Update()
	}
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkRandGeometric(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Geometric(4)
	}
}
