package experiments

import (
	"strings"
	"testing"
)

// small keeps test runs quick while staying above the congestion threshold
// where the paper's effects manifest. Workers: 2 exercises the parallel
// fan-out in every shape test (determinism is asserted separately in
// parallel_test.go).
var small = Options{Scale: 0.25, Seed: 1, Workers: 2}

func TestFig3ShapeAndRendering(t *testing.T) {
	s, err := Fig3(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Entries) != 5 {
		t.Fatalf("entries = %d", len(s.Entries))
	}
	byName := map[string]Entry{}
	for _, e := range s.Entries {
		byName[e.Name] = e
		if e.Cycles <= 0 {
			t.Fatalf("entry %q has no cycles", e.Name)
		}
	}
	if byName["collapsed AXI"].Normalized != 1.0 {
		t.Fatal("first entry must be the normalization base")
	}
	// shape assertions (loose versions of the paper's claims)
	if byName["full AHB"].Cycles < byName["full STBus"].Cycles {
		t.Error("full AHB should trail full STBus")
	}
	ratio := float64(byName["full STBus"].Cycles) / float64(byName["collapsed STBus"].Cycles)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("full vs collapsed STBus ratio %.3f outside parity band", ratio)
	}
	var sb strings.Builder
	if err := s.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Fig.3") || !strings.Contains(sb.String(), "full AHB") {
		t.Fatalf("render: %s", sb.String())
	}
}

func TestFig4SweepShape(t *testing.T) {
	r, err := Fig4(small, []int{0, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if r.Points[0].Ratio < 1.0 {
		t.Errorf("fast memory should expose the distributed crossing latency (ratio %.3f)", r.Points[0].Ratio)
	}
	if r.Points[1].Ratio >= r.Points[0].Ratio {
		t.Errorf("ratio should shrink with memory latency: %.3f -> %.3f",
			r.Points[0].Ratio, r.Points[1].Ratio)
	}
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wait_states") {
		t.Fatal("render missing header")
	}
}

func TestFig4RejectsNegativeWaitStates(t *testing.T) {
	if _, err := Fig4(small, []int{0, -1}); err == nil {
		t.Fatal("negative wait states must be rejected")
	}
}

func TestFig5Shape(t *testing.T) {
	s, err := Fig5(small)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Entry{}
	for _, e := range s.Entries {
		byName[e.Name] = e
	}
	if float64(byName["collapsed AXI"].Cycles) < 1.5*float64(byName["collapsed STBus"].Cycles) {
		t.Error("collapsed AXI should be much worse than collapsed STBus with the LMI")
	}
	if float64(byName["full AHB"].Cycles) < 2.0*float64(byName["distributed STBus"].Cycles) {
		t.Error("the STBus-AHB gap should be large with the LMI")
	}
	var sb strings.Builder
	if err := s.Write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestFig6Report(t *testing.T) {
	r, err := Fig6(Options{Scale: 0.3, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.PhaseA.FullFrac <= 0 {
		t.Error("intense phase should see a full FIFO some of the time")
	}
	if r.PhaseB.EmptyFrac <= r.PhaseA.EmptyFrac {
		t.Errorf("bursty phase should be empty more often (A=%.2f B=%.2f)",
			r.PhaseA.EmptyFrac, r.PhaseB.EmptyFrac)
	}
	if r.AHBFull > 0.05 {
		t.Errorf("AHB rerun should ~never fill the FIFO (%.3f)", r.AHBFull)
	}
	if r.AHBNoRequest < 0.6 {
		t.Errorf("AHB rerun should mostly see no requests (%.3f)", r.AHBNoRequest)
	}
	if len(r.Windows) == 0 {
		t.Error("no windows recorded")
	}
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "full AHB rerun") {
		t.Fatal("render incomplete")
	}
}

func TestSec411Shape(t *testing.T) {
	r, err := Sec411(small, []float64{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	congested := r.Points[1] // gap 0
	if float64(congested.AHB) < 1.8*float64(congested.STBus) {
		t.Errorf("congested many-to-many AHB (%d) should trail STBus (%d) badly",
			congested.AHB, congested.STBus)
	}
	// Deeper target buffering must stay within noise of the baseline or
	// better (the wait-state memory, not the response path, binds here).
	if float64(congested.STBusDeep) > 1.1*float64(congested.STBus) {
		t.Errorf("deeper target buffering hurt STBus: %d vs %d",
			congested.STBusDeep, congested.STBus)
	}
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestSec411RejectsNegativeGaps(t *testing.T) {
	if _, err := Sec411(small, []float64{2, -0.5}); err == nil {
		t.Fatal("negative gap means must be rejected")
	}
}

func TestSec412Equality(t *testing.T) {
	s, err := Sec412(small)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Entries[0].Cycles
	for _, e := range s.Entries {
		d := float64(e.Cycles-base) / float64(base)
		if d < 0 {
			d = -d
		}
		if d > 0.12 {
			t.Errorf("%s deviates %.1f%% in the many-to-one scenario", e.Name, 100*d)
		}
	}
	var sb strings.Builder
	if err := s.Write(&sb); err != nil {
		t.Fatal(err)
	}
}

// TestSec411Pinned pins the §4.1.1 table at scale 1, seed 1, cycle for
// cycle, so a change to the single-layer benches or the fabrics they
// exercise cannot pass as a change of shape only.
func TestSec411Pinned(t *testing.T) {
	r, err := Sec411(Options{Scale: 1, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Sec411Point{
		{GapMean: 8, STBus: 5656, AHB: 17912, AXI: 5301, STBusDeep: 5261},
		{GapMean: 4, STBus: 5649, AHB: 17955, AXI: 5248, STBusDeep: 5143},
		{GapMean: 2, STBus: 5427, AHB: 17827, AXI: 5239, STBusDeep: 5285},
		{GapMean: 1, STBus: 5379, AHB: 17697, AXI: 5190, STBusDeep: 5142},
		{GapMean: 0, STBus: 5380, AHB: 17656, AXI: 5287, STBusDeep: 5245},
	}
	if len(r.Points) != len(want) {
		t.Fatalf("points = %d, want %d", len(r.Points), len(want))
	}
	for i, w := range want {
		if r.Points[i] != w {
			t.Errorf("gap %.0f: got %+v, want %+v", w.GapMean, r.Points[i], w)
		}
	}
}

// TestSec412Pinned pins the §4.1.2 table at scale 1, seed 1: the 1-wait-state
// memory bounds every protocol to the same 23600 cycles.
func TestSec412Pinned(t *testing.T) {
	s, err := Sec412(Options{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(s.Entries))
	}
	for _, e := range s.Entries {
		if e.Cycles != 23600 {
			t.Errorf("%s: %d cycles, want 23600", e.Name, e.Cycles)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.normalize()
	if o.Scale != 1 || o.Seed != 1 {
		t.Fatalf("defaults: %+v", o)
	}
	if p := o.pool("x"); p.Workers != 0 || p.Label != "x" {
		t.Fatalf("pool: %+v", p)
	}
}
