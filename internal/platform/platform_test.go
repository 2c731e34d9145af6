package platform

import (
	"math"
	"strings"
	"testing"

	"mpsocsim/internal/iptg"
	"mpsocsim/internal/lmi"
)

// quick returns a small-scale spec for fast tests.
func quick(proto Protocol, topo Topology, m MemoryKind) Spec {
	s := DefaultSpec()
	s.Protocol, s.Topology, s.Memory = proto, topo, m
	s.WorkloadScale = 0.2
	s.DSPIterations = 100
	return s
}

// quickIO is quick with the I/O subsystem attached (DMA engine, two IRQ
// agents, heap allocator) at its default knobs.
func quickIO(proto Protocol, topo Topology, m MemoryKind) Spec {
	s := quick(proto, topo, m)
	s.IO.Enable = true
	return s
}

// runCycles builds and runs, failing the test on timeout.
func runCycles(t *testing.T, s Spec) Result {
	t.Helper()
	p := MustBuild(s)
	r := p.Run(5e12)
	if !r.Done {
		t.Fatalf("%s did not drain (issued=%d completed=%d)", s.Name(), r.Issued, r.Completed)
	}
	if r.Issued != r.Completed {
		t.Fatalf("%s lost transactions: issued=%d completed=%d", s.Name(), r.Issued, r.Completed)
	}
	return r
}

func TestAllVariantsRunToCompletion(t *testing.T) {
	for _, proto := range []Protocol{STBus, AHB, AXI} {
		for _, topo := range []Topology{Distributed, Collapsed} {
			for _, m := range []MemoryKind{OnChip, LMIDDR} {
				s := quick(proto, topo, m)
				t.Run(s.Name(), func(t *testing.T) {
					r := runCycles(t, s)
					if r.CentralCycles <= 0 || r.TotalBytes <= 0 {
						t.Fatalf("degenerate result: %+v", r)
					}
					if r.MemUtilization <= 0 || r.MemUtilization > 1 {
						t.Fatalf("memory utilization %v", r.MemUtilization)
					}
				})
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := runCycles(t, quick(STBus, Distributed, LMIDDR))
	b := runCycles(t, quick(STBus, Distributed, LMIDDR))
	if a.CentralCycles != b.CentralCycles || a.ExecPS != b.ExecPS {
		t.Fatalf("same spec diverged: %d vs %d cycles", a.CentralCycles, b.CentralCycles)
	}
	c := func() Result {
		s := quick(STBus, Distributed, LMIDDR)
		s.Seed = 99
		return runCycles(t, s)
	}()
	if c.CentralCycles == a.CentralCycles {
		t.Log("different seed produced identical cycles (possible but unlikely)")
	}
}

// Fig.3: collapsed and distributed STBus perform almost the same with the
// 1-wait-state on-chip memory; the same holds for collapsed AXI vs collapsed
// STBus.
func TestFig3Equivalences(t *testing.T) {
	stbusD := runCycles(t, quick(STBus, Distributed, OnChip)).CentralCycles
	stbusC := runCycles(t, quick(STBus, Collapsed, OnChip)).CentralCycles
	axiC := runCycles(t, quick(AXI, Collapsed, OnChip)).CentralCycles

	within := func(a, b int64, tol float64) bool {
		d := float64(a-b) / float64(b)
		if d < 0 {
			d = -d
		}
		return d <= tol
	}
	if !within(stbusD, stbusC, 0.12) {
		t.Errorf("distributed STBus (%d) vs collapsed STBus (%d) differ too much", stbusD, stbusC)
	}
	if !within(axiC, stbusC, 0.12) {
		t.Errorf("collapsed AXI (%d) vs collapsed STBus (%d) differ too much", axiC, stbusC)
	}
}

// Fig.3: the full AHB platform is slower than the full STBus platform even
// in AHB's best operating condition (1-wait-state memory), because its
// bridges block on every transaction.
func TestFig3AHBIneffective(t *testing.T) {
	stbus := runCycles(t, quick(STBus, Distributed, OnChip)).CentralCycles
	ahbRes := runCycles(t, quick(AHB, Distributed, OnChip)).CentralCycles
	if float64(ahbRes) < 1.10*float64(stbus) {
		t.Fatalf("full AHB (%d) should clearly trail full STBus (%d)", ahbRes, stbus)
	}
}

// Fig.5: with the LMI + DDR memory subsystem, (a) collapsed AXI is much
// worse than collapsed STBus (its protocol-conversion bridge cannot split),
// (b) collapsed STBus approaches distributed STBus, and (c) the STBus-AHB
// gap grows versus the on-chip case.
func TestFig5LMIShapes(t *testing.T) {
	stbusD := runCycles(t, quick(STBus, Distributed, LMIDDR)).CentralCycles
	stbusC := runCycles(t, quick(STBus, Collapsed, LMIDDR)).CentralCycles
	axiC := runCycles(t, quick(AXI, Collapsed, LMIDDR)).CentralCycles
	ahbD := runCycles(t, quick(AHB, Distributed, LMIDDR)).CentralCycles

	if float64(axiC) < 1.5*float64(stbusC) {
		t.Errorf("collapsed AXI (%d) should be much worse than collapsed STBus (%d)", axiC, stbusC)
	}
	if float64(stbusC) > 1.15*float64(stbusD) {
		t.Errorf("collapsed STBus (%d) should approach distributed STBus (%d)", stbusC, stbusD)
	}
	gapLMI := float64(ahbD) / float64(stbusD)
	stbusOn := runCycles(t, quick(STBus, Distributed, OnChip)).CentralCycles
	ahbOn := runCycles(t, quick(AHB, Distributed, OnChip)).CentralCycles
	gapOn := float64(ahbOn) / float64(stbusOn)
	if gapLMI <= gapOn {
		t.Errorf("STBus-AHB gap should grow with LMI: onchip %.2f, lmi %.2f", gapOn, gapLMI)
	}
}

// §4.2: upgrading the LMI conversion bridge to split transactions recovers
// performance for a non-STBus platform.
func TestSplitLMIBridgeHelps(t *testing.T) {
	blocking := quick(AXI, Collapsed, LMIDDR)
	split := quick(AXI, Collapsed, LMIDDR)
	split.SplitLMIBridge = true
	b := runCycles(t, blocking).CentralCycles
	s := runCycles(t, split).CentralCycles
	if float64(s) > 0.8*float64(b) {
		t.Fatalf("split LMI bridge (%d) should clearly beat blocking (%d)", s, b)
	}
}

// Fig.4 trend: the distributed-over-collapsed execution-time ratio shrinks
// as the memory slows (crossing latency is exposed by a fast memory, hidden
// by a slow one).
func TestFig4RatioShrinksWithMemoryLatency(t *testing.T) {
	ratio := func(w int) float64 {
		mk := func(topo Topology) int64 {
			s := quick(STBus, topo, OnChip)
			s.OnChipWaitStates = w
			s.OutstandingOverride = 1
			s.ForceNonPostedWrites = true
			return runCycles(t, s).CentralCycles
		}
		return float64(mk(Distributed)) / float64(mk(Collapsed))
	}
	fast, slow := ratio(0), ratio(16)
	if fast <= slow {
		t.Fatalf("distributed penalty should shrink with memory latency: fast=%.3f slow=%.3f", fast, slow)
	}
	if fast < 1.0 {
		t.Fatalf("with a fast memory the distributed topology should pay its crossing latency (ratio %.3f)", fast)
	}
}

// Fig.6: in the full STBus platform with LMI the input FIFO is full a large
// fraction of the time and almost never empty during the intense phase; the
// bursty phase keeps a similar full fraction but is empty more often. The
// AHB rerun shows the FIFO never full with no incoming request almost all
// the time.
func TestFig6MonitorRegimes(t *testing.T) {
	s := quick(STBus, Distributed, LMIDDR)
	s.TwoPhase = true
	s.WorkloadScale = 0.4
	s.LMI.PhaseWindow = 1000
	p := MustBuild(s)
	r := p.Run(5e12)
	if !r.Done {
		t.Fatal("two-phase run did not drain")
	}
	m := r.Monitor
	if m == nil {
		t.Fatal("monitor missing")
	}
	ws := m.Windows()
	if len(ws) < 4 {
		t.Fatalf("too few monitor windows: %d", len(ws))
	}
	// phase A = first third of windows, phase B = last third
	third := int64(len(ws)) * int64(s.LMI.PhaseWindow) / 3
	phaseA := m.Phase(0, third)
	phaseB := m.Phase(2*third, int64(len(ws))*s.LMI.PhaseWindow)
	if phaseA.FullFrac < 0.15 {
		t.Errorf("intense phase should keep the FIFO full a sizeable fraction (got %.2f)", phaseA.FullFrac)
	}
	if phaseB.EmptyFrac <= phaseA.EmptyFrac {
		t.Errorf("bursty phase should be empty more often: A=%.2f B=%.2f",
			phaseA.EmptyFrac, phaseB.EmptyFrac)
	}

	// AHB rerun: FIFO never (or almost never) full, interconnect-bound.
	sa := quick(AHB, Distributed, LMIDDR)
	sa.TwoPhase = true
	sa.WorkloadScale = 0.4
	pa := MustBuild(sa)
	ra := pa.Run(5e12)
	if !ra.Done {
		t.Fatal("AHB run did not drain")
	}
	if f := ra.Monitor.TotalFrac(lmi.StateFull); f > 0.02 {
		t.Errorf("AHB LMI FIFO full %.3f of cycles; should be ~never", f)
	}
	if nr := ra.Monitor.TotalFrac(lmi.StateNoRequest); nr < 0.7 {
		t.Errorf("AHB no-request fraction %.2f; should dominate", nr)
	}
}

// §4.1.2: with a single slave and a 1-wait-state memory all three protocols
// reach nearly the same execution time (the memory bounds everything).
func TestSingleLayerManyToOneEquality(t *testing.T) {
	cycles := map[Protocol]int64{}
	for _, proto := range []Protocol{STBus, AHB, AXI} {
		cycles[proto] = runCycles(t, SingleLayerBench(proto, 1, 300, 2, 1)).CentralCycles
	}
	base := cycles[STBus]
	for proto, c := range cycles {
		d := float64(c-base) / float64(base)
		if d < 0 {
			d = -d
		}
		if d > 0.12 {
			t.Errorf("%v single-slave time %d deviates %.1f%% from STBus %d", proto, c, 100*d, base)
		}
	}
}

// §4.1.1: with six slaves (many-to-many), AHB's single active transaction
// serializes everything; STBus and AXI exploit the parallelism.
func TestSingleLayerManyToManyDifferentiation(t *testing.T) {
	run := func(proto Protocol) int64 {
		return runCycles(t, SingleLayerBench(proto, 6, 300, 2, 1)).CentralCycles
	}
	st, ah, ax := run(STBus), run(AHB), run(AXI)
	if float64(ah) < 2.0*float64(st) {
		t.Errorf("many-to-many AHB (%d) should be far slower than STBus (%d)", ah, st)
	}
	if float64(ax) > 1.2*float64(st) {
		t.Errorf("many-to-many AXI (%d) should be competitive with STBus (%d)", ax, st)
	}
}

// §4.1.1: deeper buffering at STBus target interfaces must not hurt, and
// should help under congestion.
func TestSingleLayerTargetBuffering(t *testing.T) {
	run := func(respDepth int) int64 {
		spec := SingleLayerBench(STBus, 6, 300, 0, 1) // gap 0: congest
		spec.TargetRespDepth = respDepth
		return runCycles(t, spec).CentralCycles
	}
	shallow, deep := run(1), run(8)
	if deep > shallow {
		t.Fatalf("deeper target buffering should not hurt: shallow=%d deep=%d", shallow, deep)
	}
}

func TestWorkloadScale(t *testing.T) {
	small := quick(STBus, Distributed, OnChip)
	small.WorkloadScale = 0.1
	big := quick(STBus, Distributed, OnChip)
	big.WorkloadScale = 0.3
	rs := runCycles(t, small)
	rb := runCycles(t, big)
	if rb.CentralCycles <= rs.CentralCycles || rb.Issued <= rs.Issued {
		t.Fatalf("scale must grow the workload: %d/%d vs %d/%d cycles/txns",
			rs.CentralCycles, rs.Issued, rb.CentralCycles, rb.Issued)
	}
}

func TestResultSummary(t *testing.T) {
	r := runCycles(t, quick(STBus, Distributed, LMIDDR))
	var sb strings.Builder
	if err := r.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"STBus/distributed/lmi+ddr", "lmi fifo", "decoder", "dsp"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if r.ThroughputMBps() <= 0 || r.ExecMS() <= 0 {
		t.Fatal("throughput/exec time must be positive")
	}
}

func TestSpecNameAndStrings(t *testing.T) {
	s := quick(AXI, Collapsed, LMIDDR)
	if s.Name() != "AXI/collapsed/lmi+ddr" {
		t.Fatalf("name = %q", s.Name())
	}
	if Protocol(9).String() == "" || MemoryKind(0).String() == "" || Topology(0).String() == "" {
		t.Fatal("enum strings broken")
	}
}

// TestBuildRejectsBadSpecs requires Build to return an error, not panic or
// substitute a default, on specs it cannot build: a D-cache whose set count
// is not a power of two, an SDRAM geometry its bit-field decode cannot
// address (no banks or no bytes per column, either not a power of two,
// negative row or column bits, more than 63 address bits), a protocol or
// topology outside its enum, more than one on-chip memory beside the LMI or
// a negative count of them, a Workload IP the generator rejects, and the
// sizing bounds: a scale that is not finite or above 1000, more than 64 IRQ
// agents, and more than 3,072,000 IRQ events in all after scaling (the
// quick specs run two agents at scale 0.2).
func TestBuildRejectsBadSpecs(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(s *Spec)
		want string
	}{
		{"dcache-3KB", func(s *Spec) { s.DSPDCacheKB = 3 }, "power of two"},
		{"dcache-48KB", func(s *Spec) { s.DSPDCacheKB = 48 }, "power of two"},
		{"sdram-no-banks", func(s *Spec) { s.LMI.SDRAM.Geometry.Banks = 0 }, "bank"},
		{"sdram-no-column-bytes", func(s *Spec) { s.LMI.SDRAM.Geometry.BytesPerCol = 0 }, "BytesPerCol"},
		{"sdram-3-banks", func(s *Spec) { s.LMI.SDRAM.Geometry.Banks = 3 }, "power-of-two number of banks"},
		{"sdram-6-byte-columns", func(s *Spec) { s.LMI.SDRAM.Geometry.BytesPerCol = 6 }, "BytesPerCol"},
		{"sdram-negative-row-bits", func(s *Spec) { s.LMI.SDRAM.Geometry.RowBits = -1 }, "RowBits"},
		{"sdram-negative-column-bits", func(s *Spec) { s.LMI.SDRAM.Geometry.ColBits = -1 }, "ColBits"},
		{"sdram-64-address-bits", func(s *Spec) { s.LMI.SDRAM.Geometry.RowBits = 51 }, "exceed 63"},
		{"protocol-7", func(s *Spec) { s.Protocol = 7 }, "unknown protocol"},
		{"protocol-negative", func(s *Spec) { s.Protocol = -1 }, "unknown protocol"},
		{"topology-2", func(s *Spec) { s.Topology = 2 }, "unknown topology"},
		{"onchip-memories-with-lmi", func(s *Spec) { s.OnChipMemories = 2 }, "on-chip memories"},
		{"onchip-memories-negative", func(s *Spec) { s.Memory, s.OnChipMemories = OnChip, -1 }, "on-chip memories"},
		{"workload-ip-without-agents", func(s *Spec) { s.Workload = []iptg.Config{{Name: "bare"}} }, "no agents"},
		{"scale-1001", func(s *Spec) { s.WorkloadScale = 1001 }, "scale wants a finite number up to 1000"},
		{"scale-nan", func(s *Spec) { s.WorkloadScale = math.NaN() }, "scale wants a finite number up to 1000"},
		{"scale-inf", func(s *Spec) { s.WorkloadScale = math.Inf(1) }, "scale wants a finite number up to 1000"},
		{"irq-agents-65", func(s *Spec) { s.IO.Enable, s.IO.IRQAgents = true, 65 }, "io.irq.agents wants at most 64"},
		{"irq-events-past-cap", func(s *Spec) { s.IO.Enable, s.IO.IRQEvents = true, 7_680_001 }, "io.irq.agents × io.irq.events × scale wants at most 3072000"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := quick(STBus, Distributed, LMIDDR)
			c.edit(&s)
			p, err := Build(s)
			if err == nil {
				t.Fatalf("Build returned a platform (%s), want an error", p.Spec.Name())
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestPlatformAccessors(t *testing.T) {
	p := MustBuild(quick(STBus, Distributed, LMIDDR))
	if p.Controller() == nil || len(p.OnChipMemories()) != 0 {
		t.Fatal("LMI variant accessors wrong")
	}
	if p.Core() == nil {
		t.Fatal("DSP missing")
	}
	if p.CentralFabric() == nil {
		t.Fatal("central fabric missing")
	}
	if len(p.Initiators()) == 0 {
		t.Fatal("no generators")
	}
	if p.Bridge("n5_dma_br") == nil {
		t.Fatal("cluster bridge missing")
	}
	q := MustBuild(quick(AHB, Collapsed, OnChip))
	if len(q.OnChipMemories()) != 1 || q.Controller() != nil {
		t.Fatal("on-chip variant accessors wrong")
	}
	if q.Bridge("lmi_bridge") != nil {
		t.Fatal("unexpected lmi bridge")
	}
}
