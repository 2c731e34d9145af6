package platform

import (
	"testing"

	"mpsocsim/internal/replay"
	"mpsocsim/internal/tracecap"
)

// TestZeroAllocSteadyState proves the tentpole claim: once a platform has
// reached steady state, stepping the kernel performs zero heap allocations
// per cycle. Queue capacities, the request pool, and the stats arenas are all
// grown during warm-up; after that every data structure is recycled in place.
// It holds on the reference platform and on distributed AHB and AXI
// platforms, whose fabrics sleep and wake as well.
func TestZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	ahbSpec, axiSpec := DefaultSpec(), DefaultSpec()
	ahbSpec.Protocol, ahbSpec.Memory = AHB, OnChip
	axiSpec.Protocol = AXI
	for _, spec := range []Spec{DefaultSpec(), ahbSpec, axiSpec} {
		t.Run(spec.Name(), func(t *testing.T) {
			p := MustBuild(spec)
			// Warm up past every high-water mark: queue growth, pool
			// population, phase-tracker windows. 5000 central cycles is
			// ~10x the deepest transient observed in the reference
			// workload.
			p.Kernel.RunCycles(p.CentralClk, 5000)

			allocs := testing.AllocsPerRun(2000, func() {
				p.Kernel.Step()
			})
			if allocs != 0 {
				t.Fatalf("steady-state Step allocates: %.2f allocs/step (want 0)", allocs)
			}
		})
	}
}

// TestZeroAllocSteadyStateWithCapture re-proves the invariant with trace
// capture attached: the probes record into preallocated event storage, so
// observing the full stimulus costs no allocations per cycle either.
func TestZeroAllocSteadyStateWithCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	spec := DefaultSpec()
	p := MustBuild(spec)
	c := tracecap.NewCapture(spec.Name(), 0)
	p.AttachCapture(c)
	p.Kernel.RunCycles(p.CentralClk, 5000)

	allocs := testing.AllocsPerRun(2000, func() {
		p.Kernel.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step with capture allocates: %.2f allocs/step (want 0)", allocs)
	}
	if c.Trace().Events() == 0 {
		t.Fatal("capture recorded nothing")
	}
}

// TestZeroAllocSteadyStateWithMetrics re-proves the invariant with the full
// observability stack attached: trace capture on every initiator port plus
// one gauge sampler per clock domain. The samplers record into preallocated
// rings and every other instrument is a func-backed read of existing
// component state, so complete instrumentation costs no allocations per
// cycle.
func TestZeroAllocSteadyStateWithMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	spec := DefaultSpec()
	p := MustBuild(spec)
	c := tracecap.NewCapture(spec.Name(), 0)
	p.AttachCapture(c)
	p.EnableTimelines(0, 0)
	p.Kernel.RunCycles(p.CentralClk, 5000)

	allocs := testing.AllocsPerRun(2000, func() {
		p.Kernel.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step with metrics allocates: %.2f allocs/step (want 0)", allocs)
	}
	snap := p.Metrics.Snapshot()
	if len(snap.Timelines) == 0 {
		t.Fatal("no timelines recorded")
	}
	for _, tl := range snap.Timelines {
		if len(tl.Cycles) == 0 {
			t.Fatalf("timeline %q recorded no samples", tl.Clock)
		}
	}
}

// TestZeroAllocSteadyStateWithAttribution re-proves the invariant with
// latency attribution enabled: records come from the collector's
// preallocated free list, every stamp writes into fixed-size segment arrays,
// and Finish folds durations into preallocated histograms, so the full
// phase-stamped breakdown costs no allocations per cycle either.
func TestZeroAllocSteadyStateWithAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	spec := DefaultSpec()
	p := MustBuild(spec)
	col := p.EnableAttribution(0)
	p.Kernel.RunCycles(p.CentralClk, 5000)

	allocs := testing.AllocsPerRun(2000, func() {
		p.Kernel.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step with attribution allocates: %.2f allocs/step (want 0)", allocs)
	}
	if col.Finished() == 0 {
		t.Fatal("attribution recorded nothing")
	}
	if col.Grown() != 0 {
		t.Fatalf("record free list grew by %d in steady state (leaking records?)", col.Grown())
	}
}

// TestZeroAllocSteadyStateWithIO re-proves the invariant with the I/O
// subsystem attached: the DMA engine's descriptor chain, the IRQ devices'
// event rings and in-flight tables, and the heap allocator's live-block table
// are all preallocated at build time and recycled in place, so the extra
// initiator types cost no allocations per cycle either.
func TestZeroAllocSteadyStateWithIO(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	spec := DefaultSpec()
	spec.IO.Enable = true
	// Long chains and event streams keep both I/O initiator types live for
	// the whole measurement window.
	spec.IO.DMADescriptors = 1 << 20
	spec.IO.IRQEvents = 1 << 20
	spec.IO.AllocOps = 1 << 20
	p := MustBuild(spec)
	p.Kernel.RunCycles(p.CentralClk, 5000)

	allocs := testing.AllocsPerRun(2000, func() {
		p.Kernel.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step with I/O allocates: %.2f allocs/step (want 0)", allocs)
	}
}

// TestZeroAllocSteadyStateSingleLayer re-proves the invariant on the §4.1
// testbench, a platform of one clock.
func TestZeroAllocSteadyStateSingleLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	// 1<<30 transactions never drain during the measurement.
	p := MustBuild(SingleLayerBench(STBus, 1, 1<<30, 2, 1))
	p.Kernel.RunCycles(p.CentralClk, 5000)

	allocs := testing.AllocsPerRun(2000, func() {
		p.Kernel.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates: %.2f allocs/step (want 0)", allocs)
	}
}

// TestZeroAllocSteadyStateWithReplay re-proves the invariant with trace
// replayers in place of every traffic source, IPTGs and I/O initiators: the
// reference platform with I/O is captured, then replayed timed and elastic.
func TestZeroAllocSteadyStateWithReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	spec := DefaultSpec()
	spec.IO.Enable = true
	_, tr := captureRun(t, spec)
	for _, mode := range []replay.Mode{replay.Timed, replay.Elastic} {
		t.Run(mode.String(), func(t *testing.T) {
			s := spec
			s.Replay, s.ReplayMode = tr, mode
			p := MustBuild(s)
			p.Kernel.RunCycles(p.CentralClk, 5000)

			allocs := testing.AllocsPerRun(2000, func() {
				p.Kernel.Step()
			})
			if allocs != 0 {
				t.Fatalf("steady-state Step with %s replay allocates: %.2f allocs/step (want 0)", mode, allocs)
			}
			live := 0
			for _, g := range p.gens {
				if _, ok := g.(*replay.Initiator); ok && !g.Done() {
					live++
				}
			}
			if live == 0 {
				t.Fatal("no replayer was live during the measurement")
			}
			t.Logf("%d live replayers", live)
		})
	}
}
