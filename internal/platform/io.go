package platform

import (
	"fmt"

	"mpsocsim/internal/bridge"
	"mpsocsim/internal/bus"
	mpio "mpsocsim/internal/io"
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
// engine and interrupt-driven device agents on their own traffic layer
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

	// Attach point. The layer is pay-as-you-go: when no initiator would
	// attach to it (every family disabled, or only the DSP-side allocator
	// requested), no clock, fabric or bridge is built, so an I/O-less
	// configuration costs nothing.
	fab, clk := p.centralFab, p.CentralClk
	var br *bridge.Bridge
	if p.Spec.Topology == Distributed && (prm.dma || prm.irqAgents > 0 || (prm.alloc && !onDSP)) {
		fab, clk, br = p.openLayer("n6_io", IOMHz)
	}

	if prm.dma {
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
		err := p.addInitiator(fab, clk, cfg.Name, cfg.PortReqDepth, cfg.PortRespDepth,
			func(ids *bus.IDSource, origin int) (Initiator, error) {
				return mpio.NewDMA(cfg, clk, ids, origin)
			})
		if err != nil {
			return err
		}
	}

	for i := 0; i < prm.irqAgents; i++ {
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
		err := p.addInitiator(fab, clk, cfg.Name, cfg.PortReqDepth, cfg.PortRespDepth,
			func(ids *bus.IDSource, origin int) (Initiator, error) {
				return mpio.NewIRQ(cfg, clk, ids, origin)
			})
		if err != nil {
			return err
		}
	}

	if prm.alloc {
		afab, aclk, bpb := fab, clk, 8
		if onDSP {
			afab, aclk, bpb = p.dspLink, p.CPUClk, 4
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
		err := p.addInitiator(afab, aclk, cfg.Name, cfg.PortReqDepth, cfg.PortRespDepth,
			func(ids *bus.IDSource, origin int) (Initiator, error) {
				return mpio.NewAllocator(cfg, aclk, ids, origin)
			})
		if err != nil {
			return err
		}
	}

	if br != nil {
		p.closeLayer(fab, clk, br)
	}
	return nil
}
