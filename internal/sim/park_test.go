package sim

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"mpsocsim/internal/snapshot"
)

// Parked clocks (DESIGN.md §20): Advance leaves a clock whose components all
// sleep out of its edge groups, computes its cycle count only when something
// reads it, and lets a woken clock join the group being fired.

// reader is an ungated component recording every other clock's Cycles() in
// its Eval and its Update, and counting the reads of a parked clock at one
// of its own edges, which the lazy cycle count must settle by phase.
type reader struct {
	k      *Kernel
	others []*Clock
	log    []int64
	// atEdge counts, per phase (Eval, Update) and per other clock, the
	// reads of that clock while parked at one of its own edges.
	atEdge [2][]int
}

func (r *reader) read(ph int) {
	for i, c := range r.others {
		if c.parked && r.k.Now()%c.periodPS == 0 {
			r.atEdge[ph][i]++
		}
		r.log = append(r.log, c.Cycles())
	}
}

func (r *reader) Eval()   { r.read(0) }
func (r *reader) Update() { r.read(1) }

// poker is an ungated component that bumps a counter the watcher on clock
// a sees, poking it first, and pushes into the FIFO the drain on clock c
// pops — some of both at instants where the woken clock fires too, so that
// a parked clock joins the group before and after the sweeping clock.
type poker struct {
	k      *Kernel
	clk    *Clock
	a, c   *Clock
	x      *int
	w      *Activity
	q      *Fifo[int]
	joined [2]int // pokes of a parked clock at its own edge: a, c
}

func (p *poker) Eval() {
	n := p.clk.Cycles()
	if n%3 == 0 {
		if p.a.parked && p.k.Now()%p.a.periodPS == 0 {
			p.joined[0]++
		}
		p.w.Poke()
		*p.x++
	}
	if (n%11 == 0 || n%2 == 0 && p.k.Now()%p.c.periodPS == 0) && p.q.CanPush() {
		if p.c.parked && p.k.Now()%p.c.periodPS == 0 {
			p.joined[1]++
		}
		p.q.Push(int(n))
	}
}

func (p *poker) Update() {}

// drain is a gated popper that logs, at each pop, its own and the pace
// clock's Cycles(), and sleeps while nothing is poppable.
type drain struct {
	act    Activity
	clk    *Clock
	peer   *Clock
	in     *Fifo[int]
	log    []int64
	cycles int64
}

func (d *drain) Eval() {
	d.cycles++
	if d.in.CanPop() {
		d.log = append(d.log, int64(d.in.Pop()), d.clk.Cycles(), d.peer.Cycles())
	}
}

func (d *drain) Update() {
	d.in.Update()
	if !d.in.CanPop() {
		d.act.Sleep()
	}
}

func (d *drain) Activity() *Activity { return &d.act }
func (d *drain) CreditIdle(n int64)  { d.cycles += n }

// parkRig is one kernel of the parking test: three clocks with co-prime
// periods — a (2500 ps) and c (7519 ps) hold only gated components, so
// they park, and b (4000 ps, the pace clock) the ungated reader and poker
// between them in name order.
type parkRig struct {
	k       *Kernel
	a, b, c *Clock
	rd      *reader
	pk      *poker
	w       *watcher
	s       *drain
	timers  []*timer
}

func newParkRig(full bool) *parkRig {
	k := NewKernel()
	k.SetFullEval(full)
	r := &parkRig{k: k}
	r.a = k.NewClockPeriodPS("a", 2500)
	r.b = k.NewClockPeriodPS("b", 4000)
	r.c = k.NewClockPeriodPS("c", 7519)
	x := 0
	r.w = &watcher{clk: r.a, x: &x}
	q := NewFifo[int]("q", 4)
	r.s = &drain{clk: r.c, peer: r.b, in: q}
	q.PoppedBy(&r.s.act)
	q.OwnedBy(&r.s.act)
	r.rd = &reader{k: k, others: []*Clock{r.a, r.c}}
	r.rd.atEdge = [2][]int{make([]int, 2), make([]int, 2)}
	r.pk = &poker{k: k, clk: r.b, a: r.a, c: r.c, x: &x, w: &r.w.act, q: q}
	r.b.Register(r.rd)
	r.b.Register(r.pk)
	r.a.Register(r.w)
	r.c.Register(r.s)
	for i, clk := range []*Clock{r.a, r.a, r.c, r.c} {
		r.addTimer(clk, uint64(i+1))
	}
	return r
}

func (r *parkRig) addTimer(clk *Clock, seed uint64) {
	tm := &timer{clk: clk, rng: NewRand(seed), left: int64(3 + seed)}
	clk.Register(tm)
	r.timers = append(r.timers, tm)
}

// state renders the rig's per-edge counters (the logs are compared as they
// grow).
func (r *parkRig) state() string {
	st := fmt.Sprint(r.w.cycles, r.s.cycles, r.s.in.Stats())
	for _, tm := range r.timers {
		st += fmt.Sprint(" ", tm.cycles, tm.left, len(tm.firedAt))
	}
	return st
}

func kernelBytes(k *Kernel) []byte {
	e := snapshot.NewEncoder()
	k.EncodeState(e)
	return e.Bytes()
}

// TestParkedClocksMatchFullEvaluation drives one rig with Advance, at
// random budgets, beside a gated twin and a full-evaluation twin stepped
// group by group. Wherever Advance returns, every Cycles() the reader
// recorded, Now() and each clock's cycle count must equal full
// evaluation's, and the component-edges evaluated and skipped the gated
// twin's; the recorded state must match after Settle, and EncodeState's
// bytes while clocks are parked. Register and SetFullEval are called with
// clocks parked too.
func TestParkedClocksMatchFullEvaluation(t *testing.T) {
	adv, gated, full := newParkRig(false), newParkRig(false), newParkRig(true)
	rng := NewRand(7)
	const end = 1200e6
	registered, fullEval, restored := false, false, false
	dues := 0
	var seen [3]int // log entries compared so far
	for i := 0; adv.k.Now() < end; i++ {
		before := adv.k.Now()
		due := map[*Clock]int64{}
		for _, c := range []*Clock{adv.a, adv.c} {
			if c.parked {
				due[c] = c.nextEdge
			}
		}
		if !adv.k.Advance(adv.b, before+1+int64(rng.Intn(9000))) {
			t.Fatal("Advance reported no clocks")
		}
		now := adv.k.Now()
		for _, c := range []*Clock{adv.a, adv.c} {
			if due[c] == now && !c.parked {
				dues++
			}
		}
		for _, tw := range []*parkRig{gated, full} {
			for tw.k.Now() < now {
				tw.k.Step()
			}
		}
		if d := twinDiff(adv.k, full.k); d != "" {
			t.Fatalf("return %d at %d ps: %s", i, now, d)
		}
		for j, l := range [][2][]int64{{adv.rd.log, full.rd.log}, {adv.w.log, full.w.log}, {adv.s.log, full.s.log}} {
			if !slices.Equal(l[0][seen[j]:], l[1][seen[j]:]) {
				t.Fatalf("return %d at %d ps: log %d (reader, watcher, drain) reads %v from entry %d, full evaluation %v", i, now, j, l[0][seen[j]:], seen[j], l[1][seen[j]:])
			}
			seen[j] = len(l[0])
		}
		if i%13 == 0 {
			ev, sk := adv.k.EvalCounts()
			gev, gsk := gated.k.EvalCounts()
			if ev != gev || sk != gsk {
				t.Fatalf("return %d at %d ps: Advance evaluated %d skipped %d, Step %d and %d", i, now, ev, sk, gev, gsk)
			}
		}
		if i%97 == 0 && adv.c.parked {
			for _, r := range []*parkRig{adv, gated} {
				r.k.Settle()
			}
			if adv.state() != full.state() {
				t.Fatalf("return %d at %d ps: settled state\n%s\nfull evaluation\n%s", i, now, adv.state(), full.state())
			}
			b := kernelBytes(adv.k)
			if !bytes.Equal(b, kernelBytes(full.k)) {
				t.Fatalf("return %d at %d ps: kernel snapshot bytes differ", i, now)
			}
			if !restored {
				restored = true
				d, err := snapshot.NewDecoder(b)
				if err != nil {
					t.Fatal(err)
				}
				adv.k.DecodeState(d)
				if err := d.Finish(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !registered && now > end/3 && adv.c.parked {
			registered = true
			for _, r := range []*parkRig{adv, gated, full} {
				r.addTimer(r.c, 9)
			}
		}
		if !fullEval && now > end/2 && adv.a.parked {
			fullEval = true
			adv.k.SetFullEval(true)
			gated.k.SetFullEval(true)
		}
		if fullEval && now > end/2+20e6 && adv.k.fullEval {
			adv.k.SetFullEval(false)
			gated.k.SetFullEval(false)
		}
	}
	adv.k.Settle()
	full.k.Settle()
	if adv.state() != full.state() {
		t.Fatalf("final state\n%s\nfull evaluation\n%s", adv.state(), full.state())
	}
	if !registered || !fullEval || !restored {
		t.Fatalf("Register (%v), SetFullEval (%v) or DecodeState (%v) never met a parked clock", registered, fullEval, restored)
	}
	if dues == 0 {
		t.Fatal("no parked clock came due on its timed wake-up")
	}
	if j := adv.pk.joined; j[0] == 0 || j[1] == 0 {
		t.Fatalf("pokes joining a group before and after the sweeping clock: %v", j)
	}
	for ph, n := range adv.rd.atEdge {
		if n[0] == 0 || n[1] == 0 {
			t.Fatalf("phase %d: reads of a parked clock at its own edge, before and after the reader: %v", ph, n)
		}
	}
}
