package platform

import (
	"fmt"

	"mpsocsim/internal/bridge"
	"mpsocsim/internal/bus"
	mpio "mpsocsim/internal/io"
	"mpsocsim/internal/replay"
	"mpsocsim/internal/sim"
)

// IOMHz is the I/O subsystem's clock frequency (MHz): a 125 MHz peripheral
// domain whose 8000 ps period is an exact multiple of the 250 MHz central
// clock's 4000 ps.
const IOMHz = 125

// I/O address windows (disjoint from the cluster map in workload.go, which
// uses 0..30 MB, and the DSP benchmark arrays at 30..34 MB). Address decoding
// is memory-centric — every window lands on the single memory target — so
// the windows only shape SDRAM row/bank locality.
const (
	ioHeapBase  = 36 << 20 // heap-allocator arena (4 MB)
	ioHeapSize  = 4 << 20
	ioDescBase  = 44 << 20 // DMA descriptor chain
	ioSrcBase   = 46 << 20 // DMA gather window
	ioDstBase   = 50 << 20 // DMA scatter window
	ioDMARegion = 2 << 20
	ioIRQBase   = 54 << 20 // first device buffer window; 2 MB stride per agent
	ioIRQStride = 2 << 20
	ioIRQRegion = 1 << 20
)

// buildIO attaches the I/O subsystem (DESIGN.md §17): a descriptor-chain DMA
// engine and interrupt-driven device agents on their own cluster layer
// ("n6_io", distributed) or directly on the central node (collapsed), plus
// the software heap allocator, which models malloc/free running on the DSP —
// it shares the core's 32-bit link when the DSP is present and joins the I/O
// layer otherwise. All three are ordinary platform initiators: they gate run
// completion, pool requests, stamp attribution, register metrics, snapshot,
// and replay-swap like every IP slot.
func (p *Platform) buildIO() error {
	if !p.Spec.IO.Enable {
		return nil
	}
	prm := p.Spec.IO.effective(p.Spec.WorkloadScale)
	onDSP := p.core != nil && p.dspLink != nil

	// Attach point. The distributed branch mirrors buildClusters exactly:
	// bridge first, initiators registered on the layer clock, then the
	// fabric and the bridge target side, then the bridge initiator side
	// journaled on the central clock under the cluster unit. The layer is
	// pay-as-you-go: when no initiator would attach to it (every family
	// disabled, or only the DSP-side allocator requested), no clock, fabric
	// or bridge is built, so an I/O-less configuration costs nothing.
	distributed := p.Spec.Topology == Distributed &&
		(prm.dma || prm.irqAgents > 0 || (prm.alloc && !onDSP))
	clk := p.CentralClk
	fab := p.centralFab
	unit := "central"
	var br *bridge.Bridge
	if distributed {
		unit = "n6_io"
		clk = p.Kernel.NewClock(unit, IOMHz)
		fab = p.newFabric(unit)
		p.fabrics = append(p.fabrics, fabricEntry{fab, unit})
		br = bridge.New(unit+"_br", p.clusterBridgeConfig(), clk, p.CentralClk)
		p.bridges[unit+"_br"] = br
		fab.AttachTarget(br.TargetPort())
		p.centralFab.AttachInitiator(br.InitiatorPort())
	}
	addGen := func(gen Initiator) {
		fab.AttachInitiator(gen.Port())
		if distributed {
			clk.Register(gen)
		} else {
			p.CentralClk.Register(gen)
		}
		p.gens = append(p.gens, gen)
		p.genCluster = append(p.genCluster, unit)
		p.genClk = append(p.genClk, clk)
	}

	if prm.dma {
		origin := len(p.gens)
		cfg := mpio.DMAConfig{
			Name:         "iodma0",
			Descriptors:  prm.dmaDescriptors,
			DescBase:     ioDescBase,
			SrcBase:      ioSrcBase,
			DstBase:      ioDstBase,
			RegionSize:   ioDMARegion,
			MinBytes:     prm.dmaMinBytes,
			MaxBytes:     prm.dmaMaxBytes,
			BurstBeats:   prm.dmaBurstBeats,
			Outstanding:  p.Spec.MaxOutstanding,
			BytesPerBeat: 8,
			PostedWrites: prm.dmaPosted && !p.Spec.ForceNonPostedWrites,
			Prio:         2,
			Seed:         p.Spec.Seed ^ 0xd0a0,
		}
		gen, err := p.ioInitiator(cfg.Name, clk, origin, func(ids *bus.IDSource) (Initiator, error) {
			return mpio.NewDMA(cfg, clk, ids, origin)
		})
		if err != nil {
			return err
		}
		addGen(gen)
	}

	for i := 0; i < prm.irqAgents; i++ {
		origin := len(p.gens)
		cfg := mpio.IRQConfig{
			Name:           fmt.Sprintf("irq%d", i),
			Events:         prm.irqEvents,
			PeriodCycles:   prm.irqPeriod,
			JitterCycles:   prm.irqJitter,
			DeadlineCycles: prm.irqDeadline,
			Bursts:         prm.irqBursts,
			BurstBeats:     8,
			ReadFrac:       0.75,
			RegionBase:     uint64(ioIRQBase + i*ioIRQStride),
			RegionSize:     ioIRQRegion,
			BytesPerBeat:   8,
			Prio:           3, // interrupt service outranks bulk moves
			Seed:           p.Spec.Seed ^ (0x19a0 + uint64(i)),
		}
		gen, err := p.ioInitiator(cfg.Name, clk, origin, func(ids *bus.IDSource) (Initiator, error) {
			return mpio.NewIRQ(cfg, clk, ids, origin)
		})
		if err != nil {
			return err
		}
		addGen(gen)
	}

	if prm.alloc {
		origin := len(p.gens)
		aclk, bpb := clk, 8
		if onDSP {
			aclk, bpb = p.CPUClk, 4
		}
		cfg := mpio.AllocConfig{
			Name:         "halloc",
			Ops:          prm.allocOps,
			MinBytes:     16,
			MaxBytes:     4096,
			HeapBase:     ioHeapBase,
			HeapSize:     ioHeapSize,
			LiveCap:      32,
			GapMean:      8,
			BytesPerBeat: bpb,
			Seed:         p.Spec.Seed ^ 0x4a11,
		}
		gen, err := p.ioInitiator(cfg.Name, aclk, origin, func(ids *bus.IDSource) (Initiator, error) {
			return mpio.NewAllocator(cfg, aclk, ids, origin)
		})
		if err != nil {
			return err
		}
		if onDSP {
			p.dspLink.AttachInitiator(gen.Port())
			p.CPUClk.Register(gen)
			p.gens = append(p.gens, gen)
			p.genCluster = append(p.genCluster, "cpu")
			p.genClk = append(p.genClk, p.CPUClk)
		} else {
			addGen(gen)
		}
	}

	if distributed {
		clk.Register(fab)
		clk.Register(br.TargetSide)
		p.CentralClk.Register(br.InitiatorSide)
		p.clusterFab = append(p.clusterFab, fab)
	}
	return nil
}

// ioInitiator builds one I/O traffic slot: the live model normally, or —
// when the spec carries a replay trace — the trace-driven replayer fed from
// the stream recorded under the same name, exactly like the IP slots in
// newInitiator.
func (p *Platform) ioInitiator(name string, clk *sim.Clock, origin int, mk func(*bus.IDSource) (Initiator, error)) (Initiator, error) {
	if p.Spec.Replay == nil {
		return mk(p.newIDSource(origin))
	}
	st := p.Spec.Replay.Stream(name)
	if st == nil {
		return nil, fmt.Errorf("platform: replay trace %q has no stream for initiator %q (trace streams: %v)",
			p.Spec.Replay.Platform, name, p.Spec.Replay.StreamNames())
	}
	return replay.New(replay.Config{
		Stream:        st,
		Mode:          p.Spec.ReplayMode,
		Outstanding:   p.Spec.ReplayOutstanding,
		PortReqDepth:  4,
		PortRespDepth: 8,
	}, clk, p.newIDSource(origin), origin)
}
