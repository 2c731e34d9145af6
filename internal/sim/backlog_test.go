package sim

import (
	"fmt"
	"testing"
)

// Sleeping with queued work (DESIGN.md §20): a gated component may sleep
// while its FIFOs hold committed entries; the other side's push or pop wakes
// it, a wake takes the current edge's Eval when the sleeper's turn has not
// come, and Advance steps over edge groups in which everything sleeps
// without running a component.

// producer is a gated pusher with a random gap between pushes: it sleeps
// through each gap — with its FIFO empty, part-filled or full — and, once
// the gap is over, while its FIFO is full.
type producer struct {
	act    Activity
	clk    *Clock
	out    *Fifo[int]
	rng    *Rand
	gap    int64
	cycles int64
	sent   int
	// sleptWith counts the edges at which the producer went to sleep with
	// its FIFO empty, part-filled and full.
	sleptWith [3]int
}

func (p *producer) Eval() {
	p.cycles++
	if p.gap > 0 {
		p.gap--
		return
	}
	if p.out.CanPush() {
		p.sent++
		p.out.Push(p.sent)
		p.gap = int64(p.rng.Intn(6))
	}
}

func (p *producer) Update() {
	p.out.Update()
	switch {
	case p.gap > 0:
		p.act.SleepUntil(p.clk.Cycles() + p.gap + 1)
	case !p.out.CanPush():
		p.act.Sleep()
	}
	if p.act.Asleep() {
		switch n := p.out.Len(); {
		case n == 0:
			p.sleptWith[0]++
		case n == p.out.Depth():
			p.sleptWith[2]++
		default:
			p.sleptWith[1]++
		}
	}
}

func (p *producer) Activity() *Activity { return &p.act }

func (p *producer) CreditIdle(n int64) {
	p.cycles += n
	p.gap -= min(p.gap, n)
}

// consumer is an ungated popper taking an entry at random edges.
type consumer struct {
	in   *Fifo[int]
	rng  *Rand
	got  int
	last int
}

func (c *consumer) Eval() {
	if c.in.CanPop() && c.rng.Intn(5) == 0 {
		c.last = c.in.Pop()
		c.got++
	}
}

func (c *consumer) Update() {}

func producerRig(full bool) (*Kernel, *producer, *consumer) {
	k := NewKernel()
	k.SetFullEval(full)
	clk := k.NewClockPeriodPS("c", 1000)
	f := NewFifo[int]("q", 3)
	p := &producer{clk: clk, out: f, rng: NewRand(3)}
	f.PushedBy(&p.act)
	c := &consumer{in: f, rng: NewRand(5)}
	clk.Register(c)
	clk.Register(p)
	return k, p, c
}

// TestPopWakesPusher checks that a producer asleep behind its full FIFO
// wakes on the consumer's pop and pushes again at the edge full evaluation
// would, comparing the FIFO's committed occupancy and head after every step
// — with the FIFO empty, part-filled and full between steps.
func TestPopWakesPusher(t *testing.T) {
	kg, g, cg := producerRig(false)
	kf, f, cf := producerRig(true)
	var occupancy [3]int // steps ending with the FIFO empty, part-filled, full
	for i := 0; i < 20000; i++ {
		kg.Step()
		kf.Step()
		kg.Settle()
		got := fmt.Sprint(g.cycles, g.gap, g.sent, cg.got, cg.last, fifoState(g.out))
		want := fmt.Sprint(f.cycles, f.gap, f.sent, cf.got, cf.last, fifoState(f.out))
		if got != want {
			t.Fatalf("step %d: gated %s, full %s", i, got, want)
		}
		switch n := g.out.Len(); {
		case n == 0:
			occupancy[0]++
		case n == g.out.Depth():
			occupancy[2]++
		default:
			occupancy[1]++
		}
	}
	for occ, n := range g.sleptWith {
		if n == 0 {
			t.Errorf("the producer never slept with occupancy class %d (empty, part-filled, full)", occ)
		}
	}
	for occ, n := range occupancy {
		if n == 0 {
			t.Errorf("no step ended with occupancy class %d (empty, part-filled, full): %v", occ, occupancy)
		}
	}
}

// flagger bumps a shared counter at every edge where Cycles()%every == 3,
// poking the watcher first — state shared outside FIFOs.
type flagger struct {
	clk   *Clock
	x     *int
	w     *Activity
	every int64
}

func (f *flagger) Eval() {
	if f.clk.Cycles()%f.every == 3 {
		f.w.Poke()
		*f.x++
	}
}

func (f *flagger) Update() {}

// watcher logs the Cycles() of every Eval that sees the shared counter
// change, and sleeps whenever it is not poked.
type watcher struct {
	act    Activity
	clk    *Clock
	x      *int
	seen   int
	log    []int64
	cycles int64
}

func (w *watcher) Eval() {
	w.cycles++
	if *w.x != w.seen {
		w.seen = *w.x
		w.log = append(w.log, w.clk.Cycles())
	}
}

func (w *watcher) Update()             { w.act.Sleep() }
func (w *watcher) Activity() *Activity { return &w.act }
func (w *watcher) CreditIdle(n int64)  { w.cycles += n }

// TestWakeTakesEvalBeforeItsTurn checks the same-edge rule of a wake: the
// woken watcher takes this edge's Eval when its slot comes later in the
// sweep — later on the same clock, or on a clock later in the edge group —
// and sees the change one edge later when its turn has passed, exactly as
// under full evaluation, on one clock's single-clock path and beside a
// 7519 ps clock that moves Step onto the scan.
func TestWakeTakesEvalBeforeItsTurn(t *testing.T) {
	cases := []struct {
		name           string
		flagClk, watch string // clock names; equal means one clock
		watcherFirst   bool   // on one clock: watcher registered first
		sameEdge       bool   // the watcher sees the change at the flag edge
	}{
		{"later-slot", "a", "a", false, true},
		{"earlier-slot", "a", "a", true, false},
		{"later-clock", "a", "b", false, true},
		{"earlier-clock", "b", "a", false, false},
	}
	for _, tc := range cases {
		for _, generic := range []bool{false, true} {
			tc := tc
			t.Run(fmt.Sprintf("%s/generic=%v", tc.name, generic), func(t *testing.T) {
				build := func(full bool) (*Kernel, *watcher) {
					k := NewKernel()
					k.SetFullEval(full)
					clocks := map[string]*Clock{tc.flagClk: k.NewClockPeriodPS(tc.flagClk, 1000)}
					if tc.watch != tc.flagClk {
						clocks[tc.watch] = k.NewClockPeriodPS(tc.watch, 1000)
					}
					if generic {
						k.NewClockPeriodPS("z", 7519).Register(&busy{})
					}
					x := 0
					w := &watcher{clk: clocks[tc.watch], x: &x}
					f := &flagger{clk: clocks[tc.flagClk], x: &x, w: &w.act, every: 17}
					if tc.watcherFirst {
						clocks[tc.watch].Register(w)
						clocks[tc.flagClk].Register(f)
					} else {
						clocks[tc.flagClk].Register(f)
						clocks[tc.watch].Register(w)
					}
					return k, w
				}
				kg, g := build(false)
				kf, f := build(true)
				for kf.Now() < 400_000 {
					kg.Step()
					kf.Step()
				}
				kg.Settle()
				if fmt.Sprint(g.log, g.cycles) != fmt.Sprint(f.log, f.cycles) {
					t.Fatalf("gated saw changes at %v (%d cycles), full evaluation at %v (%d cycles)", g.log, g.cycles, f.log, f.cycles)
				}
				if len(g.log) < 20 {
					t.Fatalf("only %d changes seen", len(g.log))
				}
				want := int64(3)
				if !tc.sameEdge {
					want++
				}
				if g.log[0] != want {
					t.Fatalf("first change seen at Cycles()=%d, want %d", g.log[0], want)
				}
				ev, sk := kg.EvalCounts()
				fev, _ := kf.EvalCounts()
				if ev+sk != fev || sk == 0 {
					t.Fatalf("gated evaluated %d + skipped %d, full evaluation %d", ev, sk, fev)
				}
			})
		}
	}
}

// timer is a gated component that fires at random intervals and sleeps in
// between.
type timer struct {
	act     Activity
	clk     *Clock
	rng     *Rand
	left    int64
	cycles  int64
	firedAt []int64
}

func (t *timer) Eval() {
	t.cycles++
	if t.left--; t.left <= 0 {
		t.firedAt = append(t.firedAt, t.clk.Cycles())
		t.left = 1 + int64(t.rng.Intn(60))
	}
}

func (t *timer) Update() {
	if t.left > 1 {
		t.act.SleepUntil(t.clk.Cycles() + t.left)
	}
}

func (t *timer) Activity() *Activity { return &t.act }
func (t *timer) CreditIdle(n int64)  { t.cycles += n; t.left -= n }

// idleRig puts two timers on clock "a" and, unless periodPace is 0, a busy
// component on the pace clock "p".
func idleRig(periodA, periodPace int64, full bool) (*Kernel, *Clock, []*timer) {
	k := NewKernel()
	k.SetFullEval(full)
	a := k.NewClockPeriodPS("a", periodA)
	var pace *Clock
	if periodPace > 0 {
		pace = k.NewClockPeriodPS("p", periodPace)
		pace.Register(&busy{})
	}
	var ts []*timer
	for i := 0; i < 2; i++ {
		tm := &timer{clk: a, rng: NewRand(uint64(i + 1)), left: int64(5 + 7*i)}
		a.Register(tm)
		ts = append(ts, tm)
	}
	return k, pace, ts
}

// TestIdleGroupsMatchFullEvaluation drives a gated kernel with Advance and a
// full-evaluation twin with Step to the same instants — timers alone, and
// beside a busy pace clock whose edges coincide with theirs often
// ("hyperperiod") or almost never ("generic") — and requires equal time,
// cycle counts, component-edge totals and timer state wherever Advance
// returns, including at a budget that falls while the timers' clock is
// parked.
func TestIdleGroupsMatchFullEvaluation(t *testing.T) {
	tiers := []struct {
		name             string
		periodA, periodP int64
	}{
		{"single-clock", 2500, 0},
		{"hyperperiod", 2500, 4000},
		{"generic", 2500, 7519},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			kg, pace, g := idleRig(tier.periodA, tier.periodP, false)
			kf, _, f := idleRig(tier.periodA, tier.periodP, true)
			jumps := 0
			for kg.Now() < 5e7 {
				budget := kg.Now() + 1e6
				if !kg.Advance(pace, budget) {
					t.Fatal("Advance reported no clocks")
				}
				steps := 0
				for kf.Now() < kg.Now() && kf.Now() < budget {
					kf.Step()
					steps++
				}
				if steps > 1 {
					jumps++
				}
				kg.Settle()
				if d := twinDiff(kg, kf); d != "" {
					t.Fatalf("at %d ps: %s", kf.Now(), d)
				}
				for i := range g {
					got := fmt.Sprint(g[i].cycles, g[i].left, len(g[i].firedAt))
					want := fmt.Sprint(f[i].cycles, f[i].left, len(f[i].firedAt))
					if got != want {
						t.Fatalf("at %d ps: timer %d gated %s, full %s", kf.Now(), i, got, want)
					}
				}
			}
			if fmt.Sprint(g[0].firedAt, g[1].firedAt) != fmt.Sprint(f[0].firedAt, f[1].firedAt) {
				t.Fatal("timers fired at different cycles")
			}
			if jumps == 0 {
				t.Fatal("Advance never stepped over an idle group")
			}
		})
	}
}

// twinDiff compares the time, every clock's cycle count and the
// component-edge total of a gated kernel and its full-evaluation twin.
func twinDiff(kg, kf *Kernel) string {
	if kg.Now() != kf.Now() {
		return fmt.Sprintf("gated at %d ps, full evaluation at %d ps", kg.Now(), kf.Now())
	}
	for i, c := range kg.Clocks() {
		if c.Cycles() != kf.Clocks()[i].Cycles() {
			return fmt.Sprintf("clock %s: gated %d cycles, full %d", c.Name(), c.Cycles(), kf.Clocks()[i].Cycles())
		}
	}
	ev, sk := kg.EvalCounts()
	if fev, _ := kf.EvalCounts(); ev+sk != fev {
		return fmt.Sprintf("gated evaluated %d + skipped %d, full evaluation %d", ev, sk, fev)
	}
	return ""
}

// TestAdvanceStopsAtBudget runs the loop a platform runs — Advance while
// time is short of the budget — against a full-evaluation twin stepping
// group by group, for budgets inside and outside idle runs: both must stop
// at the same instant, the first at or past the budget. With a pace clock,
// Advance must also return at every one of its edges.
func TestAdvanceStopsAtBudget(t *testing.T) {
	for budget := int64(1); budget < 400_000; budget += 7919 {
		kg, pace, _ := idleRig(2500, 0, false)
		kf, _, _ := idleRig(2500, 0, true)
		for kg.Now() < budget {
			kg.Advance(pace, budget)
		}
		for kf.Now() < budget {
			kf.Step()
		}
		kg.Settle()
		if d := twinDiff(kg, kf); d != "" {
			t.Fatalf("budget %d ps: %s", budget, d)
		}
	}
	k, pace, _ := idleRig(2500, 50_000, false)
	next := int64(50_000)
	for k.Now() < 2e6 {
		k.Advance(pace, 2e6)
		if k.Now() > next {
			t.Fatalf("Advance ran past the pace edge at %d ps to %d ps", next, k.Now())
		}
		if k.Now() == next {
			next += 50_000
		}
	}
}

// TestBacklogStepZeroAlloc extends the kernel's zero-allocation guarantee to
// pops waking a pusher and to Advance parking and unparking clocks.
func TestBacklogStepZeroAlloc(t *testing.T) {
	k, _, _ := producerRig(false)
	k.RunCycles(k.Clocks()[0], 1000)
	if allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 50; i++ {
			k.Step()
		}
		k.Settle()
	}); allocs != 0 {
		t.Fatalf("stepping a backlogged producer allocated %.1f times per 50 steps", allocs)
	}
	for _, tier := range [][2]int64{{2500, 0}, {2500, 4000}, {2500, 7519}} {
		k, pace, ts := idleRig(tier[0], tier[1], false)
		for _, tm := range ts {
			tm.firedAt = make([]int64, 0, 1<<16)
		}
		k.RunUntil(1e6)
		if allocs := testing.AllocsPerRun(200, func() {
			for i := 0; i < 20; i++ {
				k.Advance(pace, k.Now()+1e6)
			}
			k.Settle()
		}); allocs != 0 {
			t.Fatalf("periods %v: Advance allocated %.1f times per 20 calls", tier, allocs)
		}
	}
}
