package sim

import (
	"fmt"
	"testing"
)

// Sleeping at the end of Eval (DESIGN.md §20): a component whose Update has
// nothing to commit — the three fabrics — applies its sleep rule at the end
// of its Eval, and the kernel skips that edge's Update. A poke later in the
// same edge wakes it with its turn passed and books nothing, the state a
// refused sleep request leaves.

// feed is an ungated pusher that owns its FIFO: it pushes at random edges
// and commits the FIFO in its Update. Before each push it counts the pokes
// that wake the popper at the edge the popper fell asleep.
type feed struct {
	rng   *Rand
	out   *Fifo[int]
	to    *eager
	sent  int
	pokes int
}

func (s *feed) Eval() {
	if s.rng.Intn(11) != 0 || !s.out.CanPush() {
		return
	}
	if s.to.act.Asleep() && s.to.sleptAt == s.to.clk.Cycles() {
		s.pokes++
	}
	s.sent++
	s.out.Push(s.sent)
}

func (s *feed) Update() { s.out.Update() }

// eager is a gated popper built like the fabrics: its Update does nothing,
// and it sleeps at the end of every Eval that moved nothing — until a poke,
// or, while a countdown armed by its latest token runs, until the countdown
// expires.
type eager struct {
	act       Activity
	clk       *Clock
	in        *Fifo[int]
	cycles    int64
	countdown int64
	sum       int
	firedAt   []int64
	credited  int64
	sleptAt   int64
}

func (e *eager) Eval() {
	e.cycles++
	moved := false
	if e.in.CanPop() {
		v := e.in.Pop()
		e.sum += v
		e.countdown = int64(2 + v%9)
		moved = true
	} else if e.countdown > 0 {
		if e.countdown--; e.countdown == 0 {
			e.firedAt = append(e.firedAt, e.clk.Cycles())
			moved = true
		}
	}
	switch {
	case moved:
	case e.countdown > 0:
		e.act.SleepUntil(e.clk.Cycles() + e.countdown)
	default:
		e.act.Sleep()
	}
	if e.act.Asleep() {
		e.sleptAt = e.clk.Cycles()
	}
}

func (e *eager) Update()             {}
func (e *eager) Activity() *Activity { return &e.act }

func (e *eager) CreditIdle(n int64) {
	e.cycles += n
	e.countdown -= min(e.countdown, n)
	e.credited += n
}

// TestSleepAtEndOfEval steps a gated kernel and a full-evaluation twin side
// by side with the eager popper's pusher in a later slot of its clock, on a
// clock later in the edge group, and on a clock earlier in it — so a push
// pokes the popper later in the edge it fell asleep at, or never does. The
// popper's counters, countdown, sum, event instants and FIFO must match
// after every step; the gated kernel's skipped component-edges must equal
// what CreditIdle booked; and evaluated plus skipped must equal full
// evaluation's count.
func TestSleepAtEndOfEval(t *testing.T) {
	cases := []struct {
		name          string
		popClk, feedC string // clock names; equal means one clock
		latePokes     bool   // pushes poke the popper after it slept
	}{
		{"later-slot", "a", "a", true},
		{"later-clock", "a", "b", true},
		{"not-poked", "b", "a", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(full bool) (*Kernel, *eager, *feed) {
				k := NewKernel()
				k.SetFullEval(full)
				clocks := map[string]*Clock{tc.popClk: k.NewClockPeriodPS(tc.popClk, 1000)}
				if tc.feedC != tc.popClk {
					clocks[tc.feedC] = k.NewClockPeriodPS(tc.feedC, 1000)
				}
				q := NewFifo[int]("q", 2)
				e := &eager{clk: clocks[tc.popClk], in: q}
				q.PoppedBy(&e.act)
				s := &feed{rng: NewRand(13), out: q, to: e}
				clocks[tc.popClk].Register(e)
				clocks[tc.feedC].Register(s)
				return k, e, s
			}
			kg, g, gs := build(false)
			kf, f, _ := build(true)
			for i := 0; i < 20000; i++ {
				kg.Step()
				kf.Step()
				kg.Settle()
				got := fmt.Sprint(g.cycles, g.countdown, g.sum, len(g.firedAt), fifoState(g.in))
				want := fmt.Sprint(f.cycles, f.countdown, f.sum, len(f.firedAt), fifoState(f.in))
				if got != want {
					t.Fatalf("step %d: gated %s, full %s", i, got, want)
				}
			}
			if fmt.Sprint(g.firedAt) != fmt.Sprint(f.firedAt) {
				t.Fatal("countdowns expired at different cycles")
			}
			ev, sk := kg.EvalCounts()
			fev, _ := kf.EvalCounts()
			if ev+sk != fev {
				t.Fatalf("gated evaluated %d + skipped %d, full evaluation %d", ev, sk, fev)
			}
			if sk != g.credited || sk == 0 {
				t.Fatalf("gated kernel skipped %d component-edges, CreditIdle booked %d", sk, g.credited)
			}
			if len(g.firedAt) == 0 {
				t.Fatal("no countdown ever expired")
			}
			if late := gs.pokes > 0; late != tc.latePokes {
				t.Fatalf("%d pokes woke the popper at the edge it fell asleep, want some: %v", gs.pokes, tc.latePokes)
			}
		})
	}
}
