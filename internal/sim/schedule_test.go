package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// recorder appends "<name>@<cycles-after-update>" markers so tests can compare
// the exact firing order across clock sets and dispatch paths.
type recorder struct {
	clk  *Clock
	name string
	log  *[]string
}

func (r *recorder) Eval() {}
func (r *recorder) Update() {
	*r.log = append(*r.log, fmt.Sprintf("%s@%d", r.name, r.clk.Cycles()))
}

// expectedEdges brute-forces the firing sequence for the given periods: at
// each instant, the due clocks in name order (names here sort like the
// construction order).
func expectedEdges(t *testing.T, names []string, periods []int64, steps int) []string {
	t.Helper()
	next := append([]int64(nil), periods...)
	cyc := make([]int64, len(periods))
	var out []string
	for s := 0; s < steps; s++ {
		min := next[0]
		for _, n := range next[1:] {
			if n < min {
				min = n
			}
		}
		for i := range next {
			if next[i] == min {
				out = append(out, fmt.Sprintf("%s@%d", names[i], cyc[i]))
				cyc[i]++
				next[i] += periods[i]
			}
		}
	}
	return out
}

func runRecorded(periods []int64, names []string, steps int) []string {
	k := NewKernel()
	var log []string
	for i, p := range periods {
		c := k.NewClockPeriodPS(names[i], p)
		c.Register(&recorder{clk: c, name: names[i], log: &log})
	}
	for len(log) < steps {
		if !k.Step() {
			break
		}
	}
	return log
}

// TestScheduleTiersFireIdenticalEdges pins the scheduling invariant: the
// name-sorted scan reproduces the brute-force edge sequence exactly, for
// clock sets with a short hyperperiod (the subtests named "schedule", once
// served by a tabulated schedule) and with a huge one from the 7519 ps
// quantized-133 MHz period ("generic").
func TestScheduleTiersFireIdenticalEdges(t *testing.T) {
	cases := []struct {
		label   string
		names   []string
		periods []int64
	}{
		// LCM 20000 ps, 14 edges per hyperperiod.
		{"schedule", []string{"a", "b"}, []int64{2500, 4000}},
		// Simultaneous edges every 5000 ps plus an offset domain.
		{"schedule-simultaneous", []string{"a", "b", "c"}, []int64{2500, 5000, 4000}},
		// 7519 is co-prime with both: no edges coincide for ~113 s.
		{"generic", []string{"a", "b", "c"}, []int64{2500, 4000, 7519}},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			const steps = 500
			want := expectedEdges(t, tc.names, tc.periods, steps)[:steps]
			got := runRecorded(tc.periods, tc.names, steps+len(tc.periods))[:steps]
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("edge %d: got %s, want %s", i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestClockPeriodPinsPlatformFrequencies pins the quantized periods of every
// frequency the reference platforms use, including the rounding cases the
// NewClock doc comment calls out (333 MHz -> 3003 ps, 133 MHz -> 7519 ps).
func TestClockPeriodPinsPlatformFrequencies(t *testing.T) {
	k := NewKernel()
	cases := []struct {
		mhz    float64
		period int64
	}{
		{400, 2500},
		{333, 3003},
		{250, 4000},
		{200, 5000},
		{166, 6024},
		{133, 7519},
		{100, 10000},
	}
	for _, tc := range cases {
		c := k.NewClock(fmt.Sprintf("f%v", tc.mhz), tc.mhz)
		if c.PeriodPS() != tc.period {
			t.Errorf("freq %v MHz: period = %d ps, want %d", tc.mhz, c.PeriodPS(), tc.period)
		}
	}
}

// TestResetStopAllowsReuse verifies a stopped kernel can be restarted: Stop
// latches, ResetStop clears, and the run loops pick up exactly where the
// previous run halted.
func TestResetStopAllowsReuse(t *testing.T) {
	k := NewKernel()
	clk := k.NewClock("c", 100)
	ticks := 0
	clk.Register(&ClockedFunc{OnEval: func() {
		ticks++
		if ticks == 5 {
			k.Stop()
		}
	}})
	k.RunUntil(1_000_000)
	if ticks != 5 {
		t.Fatalf("first run ticked %d, want 5 (Stop latched)", ticks)
	}
	if !k.Stopped() {
		t.Fatal("kernel should report stopped")
	}
	k.RunUntil(1_000_000)
	if ticks != 5 {
		t.Fatalf("stopped kernel must not advance, ticked %d", ticks)
	}

	k.ResetStop()
	if k.Stopped() {
		t.Fatal("ResetStop must clear the latch")
	}
	k.RunCycles(clk, 5)
	if ticks != 10 {
		t.Fatalf("after ResetStop ticked %d, want 10", ticks)
	}
	if clk.Cycles() != 10 {
		t.Fatalf("clock cycles = %d, want 10", clk.Cycles())
	}
}

// TestMidRunTopologyChangeInvalidatesSchedule adds a clock and a component
// after the kernel has already built (and used) its edge schedule; both must
// be picked up without disturbing the existing domains.
func TestMidRunTopologyChangeInvalidatesSchedule(t *testing.T) {
	k := NewKernel()
	a := k.NewClockPeriodPS("a", 2500)
	aTicks := 0
	a.Register(&ClockedFunc{OnEval: func() { aTicks++ }})
	k.RunCycles(a, 8) // schedule built on the single-clock path

	// New domain mid-run: its first edge is one period after *time zero*,
	// i.e. already in the simulated past, so it catches up deterministically
	// through the scan.
	b := k.NewClockPeriodPS("b", 4000)
	bTicks := 0
	b.Register(&ClockedFunc{OnEval: func() { bTicks++ }})
	// New component on the existing clock mid-run.
	a2Ticks := 0
	a.Register(&ClockedFunc{OnEval: func() { a2Ticks++ }})

	k.RunUntil(40_000)
	if aTicks != 16 {
		t.Fatalf("a ticked %d, want 16", aTicks)
	}
	if a2Ticks != 8 {
		t.Fatalf("late component ticked %d, want 8", a2Ticks)
	}
	if bTicks != 10 {
		t.Fatalf("b ticked %d, want 10 (catch-up from t=4000)", bTicks)
	}
	if a.Cycles() != 16 || b.Cycles() != 10 {
		t.Fatalf("cycles = %d/%d, want 16/10", a.Cycles(), b.Cycles())
	}
}

// TestKernelStepZeroAlloc guards the zero-allocation invariant at the kernel
// level for the single-clock path and the scan, with and without
// coinciding edges (subtests "schedule" and "generic").
func TestKernelStepZeroAlloc(t *testing.T) {
	tiers := []struct {
		label   string
		periods []int64
	}{
		{"single", []int64{4000}},
		{"schedule", []int64{2500, 4000}},
		{"generic", []int64{2500, 4000, 7519}},
	}
	for _, tc := range tiers {
		t.Run(tc.label, func(t *testing.T) {
			k := NewKernel()
			for i, p := range tc.periods {
				c := k.NewClockPeriodPS(fmt.Sprintf("c%d", i), p)
				c.Register(&ClockedFunc{OnEval: func() {}})
			}
			// Warm past the lazy schedule build and the firing-buffer
			// high-water mark (first simultaneous multi-clock edge).
			for i := 0; i < 100; i++ {
				k.Step()
			}
			allocs := testing.AllocsPerRun(1000, func() { k.Step() })
			if allocs != 0 {
				t.Fatalf("Step allocates on the %s clock set: %.2f allocs/step", tc.label, allocs)
			}
		})
	}
}
