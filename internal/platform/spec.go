// Package platform assembles complete MPSoC virtual-platform instances in
// the mould of the paper's Fig.1: functional clusters of IP traffic
// generators on their own interconnect layers, bridged into a central
// node that owns the memory subsystem (on-chip shared memory or the LMI
// controller with off-chip DDR SDRAM), plus the ST220-class DSP core behind
// an upsize frequency converter.
//
// Every architectural variant the paper evaluates is a Spec value:
// communication protocol (STBus / AHB / AXI), topology (distributed
// multi-layer vs collapsed single-layer), memory subsystem, bridge
// functionality, and the workload (steady or two-phase for the Fig.6
// analysis).
package platform

import (
	"fmt"

	"mpsocsim/internal/iptg"
	"mpsocsim/internal/lmi"
	"mpsocsim/internal/replay"
	"mpsocsim/internal/stbus"
	"mpsocsim/internal/tracecap"
)

// Protocol selects the communication protocol family.
type Protocol int

// Protocols.
const (
	STBus Protocol = iota
	AHB
	AXI
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case STBus:
		return "STBus"
	case AHB:
		return "AHB"
	case AXI:
		return "AXI"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Topology selects the interconnect organization.
type Topology int

// Topologies.
const (
	// Distributed is the full multi-layer platform of Fig.1: five
	// functional clusters on their own layers, bridged to the central
	// node.
	Distributed Topology = iota
	// Collapsed attaches every communication actor directly to the
	// central node (the paper's "collapsed" = single-layer variants),
	// trading bus-access contention against multi-hop latency.
	Collapsed
)

// String names the topology.
func (t Topology) String() string {
	if t == Collapsed {
		return "collapsed"
	}
	return "distributed"
}

// MemoryKind selects the memory subsystem.
type MemoryKind int

// Memory subsystems.
const (
	// OnChip is the on-chip shared memory variant (W wait states,
	// single-slot buffering).
	OnChip MemoryKind = iota
	// LMIDDR is the LMI memory controller driving off-chip DDR SDRAM.
	LMIDDR
)

// String names the memory kind.
func (m MemoryKind) String() string {
	if m == LMIDDR {
		return "lmi+ddr"
	}
	return "onchip"
}

// Spec fully describes one platform instance.
type Spec struct {
	Protocol Protocol
	Topology Topology
	Memory   MemoryKind

	// OnChipWaitStates configures the OnChip memory (default 1, the
	// paper's baseline).
	OnChipWaitStates int
	// OnChipMemories splits the OnChip memory into this many memories on
	// the central node (0 means 1): memory t decodes [t·16 MiB,
	// (t+1)·16 MiB) and the last one every address above. Six give the
	// many-to-many traffic of §4.1.1. Build rejects more than one with
	// LMIDDR.
	OnChipMemories int
	// LMI configures the LMIDDR memory subsystem.
	LMI lmi.Config

	// STBusType selects the protocol generation for STBus layers.
	STBusType stbus.Type
	// MaxOutstanding bounds in-flight transactions per initiator
	// interface on STBus/AXI layers.
	MaxOutstanding int
	// SplitLMIBridge upgrades the protocol-conversion bridge in front of
	// the LMI (needed only when Protocol != STBus) from the lightweight
	// blocking implementation to a split-capable one — the knob §4.2 of
	// the paper turns.
	SplitLMIBridge bool
	// TargetRespDepth sizes the response/prefetch FIFO at target bus
	// interfaces (the buffering lever of §4.1.1).
	TargetRespDepth int
	// NoMessageArbitration disables message-granularity arbitration in
	// STBus nodes — the ablation for §3's claim that messaging keeps
	// memory-controller-friendly sequences together.
	NoMessageArbitration bool
	// BridgeLatency overrides the pipeline latency (in destination
	// cycles) of every cluster bridge; 0 keeps the default of 1.
	BridgeLatency int

	// WithDSP includes the ST220-class core and its converter. The core
	// runs its cache-missing synthetic benchmark as background
	// interference for the whole application lifetime (paper §3: "tuned
	// to generate a significant amount of cache misses interfering with
	// the traffic patterns of the other cores"); it does not gate run
	// completion.
	WithDSP bool
	// DSPIterations bounds the core's benchmark; 0 or negative runs it
	// for the whole simulation (the default interference setup).
	DSPIterations int64
	// DSPDCacheKB overrides the core's D-cache size in KiB (0 keeps the
	// 32 KiB default) — the interference lever of the cache-size sweep.
	DSPDCacheKB int
	// DSPWorkingSetKB sets the benchmark's per-array working-set window
	// in KiB (0 keeps the 64 KiB default, which thrashes the default
	// cache and sustains interference). Small windows combined with a
	// cache sweep expose the reuse/thrash transition.
	DSPWorkingSetKB int

	// Workload, when set, replaces the Fig.1 clusters: its IPs form one
	// traffic layer, which is the central node when Collapsed and a
	// bridged layer of its own when Distributed. It is used as given —
	// WorkloadScale, TwoPhase and Seed shape only the Fig.1 clusters and
	// the I/O subsystem — except for OutstandingOverride and
	// ForceNonPostedWrites, which apply to every IP. Build works on a
	// copy and never writes through it. SingleLayerBench sets it.
	Workload []iptg.Config
	// WorkloadScale multiplies every agent's transaction counts.
	WorkloadScale float64
	// OutstandingOverride, when positive, caps every agent's transaction
	// pipelining capability — the "simple IP bus interface" setting used
	// by the Fig.4 memory-speed sweep, where per-transaction latency is
	// exposed rather than hidden behind deep pipelining.
	OutstandingOverride int
	// ForceNonPostedWrites makes every write wait for its acknowledgement
	// (no posting). Combined with low outstanding counts this is the
	// latency-sensitive regime of the Fig.4 analysis: a distributed
	// topology acks writes locally in its store-and-forward bridges,
	// while a collapsed one waits for the (possibly slow) memory.
	ForceNonPostedWrites bool
	// TwoPhase switches the workload to the two-regime profile used for
	// the Fig.6 analysis.
	TwoPhase bool
	// Seed drives all traffic-generator randomness.
	Seed uint64

	// IO configures the I/O subsystem: a descriptor-chain DMA engine,
	// interrupt-driven device agents with deadline tracking, and a software
	// heap-allocator traffic source (DESIGN.md §17). Disabled by default so
	// the paper's reference figures are unchanged.
	IO IOSpec

	// Replay, when non-nil, swaps every IP traffic generator for a
	// trace-driven replay initiator fed from the trace's matching
	// per-initiator stream (matched by IP name). The workload knobs above
	// (scale, seed, two-phase) then only shape the expected initiator
	// set, not the traffic — the trace is the traffic. Capture a trace
	// with Platform.AttachCapture or `mpsocsim -capture`.
	Replay *tracecap.Trace
	// ReplayMode selects the replay scheduling discipline (Timed
	// re-issues at the recorded cycles; Elastic issues as fast as
	// accepted).
	ReplayMode replay.Mode
	// ReplayOutstanding bounds in-flight transactions per initiator in
	// Elastic mode (0 keeps the replay default of 8).
	ReplayOutstanding int
}

// DefaultSpec returns the paper's reference platform: distributed STBus
// with the LMI + DDR memory subsystem and the DSP enabled.
func DefaultSpec() Spec {
	return Spec{
		Protocol:         STBus,
		Topology:         Distributed,
		Memory:           LMIDDR,
		OnChipWaitStates: 1,
		LMI:              lmi.DefaultConfig(),
		STBusType:        stbus.Type3,
		MaxOutstanding:   8,
		TargetRespDepth:  8,
		WithDSP:          true,
		DSPIterations:    400,
		WorkloadScale:    1,
		Seed:             1,
	}
}

func (s *Spec) normalize() {
	if s.OnChipWaitStates < 0 {
		s.OnChipWaitStates = 0
	}
	if s.STBusType == 0 {
		s.STBusType = stbus.Type3
	}
	if s.MaxOutstanding <= 0 {
		s.MaxOutstanding = 8
	}
	if s.TargetRespDepth <= 0 {
		s.TargetRespDepth = 8
	}
	if s.WorkloadScale <= 0 {
		s.WorkloadScale = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// IOSpec configures the I/O subsystem of DESIGN.md §17. The zero value is
// "disabled"; with Enable set, zero-valued knobs mean "default". Defaults
// are interpreted at build time (see effective), NOT filled in here or in
// normalize: Snapshot fingerprints the normalized spec while Restore
// fingerprints the caller's raw spec, so normalization must never rewrite
// spec fields.
type IOSpec struct {
	// Enable attaches the I/O subsystem: its own 125 MHz cluster layer in
	// the distributed topology (a sixth bridge into the central node), or
	// direct central-node attachment in the collapsed one.
	Enable bool

	// DMADescriptors is the DMA engine's chain length. 0 means the default
	// (48, scaled by WorkloadScale); negative disables the DMA engine —
	// the "storm off" control of the `experiments io` scenario.
	DMADescriptors int
	// DMABurstBeats is the programmed burst length (default 16).
	DMABurstBeats int
	// DMAMinBytes/DMAMaxBytes bound the per-descriptor payload draw
	// (defaults 2048/8192).
	DMAMinBytes int
	DMAMaxBytes int
	// DMAPostedWrites posts the engine's scatter writes (subject to
	// ForceNonPostedWrites, like every other initiator).
	DMAPostedWrites bool

	// IRQAgents is how many interrupt-driven device agents to attach
	// (0 means the default of 2; negative disables them).
	IRQAgents int
	// IRQPeriodCycles/IRQJitterCycles shape the device event source in
	// I/O-clock cycles (defaults 400 ± 32).
	IRQPeriodCycles int64
	IRQJitterCycles int64
	// IRQDeadlineCycles is each event's service deadline in I/O-clock
	// cycles (default 256).
	IRQDeadlineCycles int64
	// IRQEvents is the per-agent event count (0 means the default of 48,
	// scaled by WorkloadScale).
	IRQEvents int
	// IRQBursts is the transactions per interrupt service (default 4).
	IRQBursts int

	// AllocOps is the heap allocator's malloc/free operation count.
	// 0 means the default (240, scaled by WorkloadScale); negative
	// disables the allocator.
	AllocOps int
}

// ioParams are the build-time-effective I/O parameters after default
// interpretation and workload scaling.
type ioParams struct {
	dma            bool
	dmaDescriptors int
	dmaBurstBeats  int
	dmaMinBytes    int
	dmaMaxBytes    int
	dmaPosted      bool

	irqAgents   int
	irqPeriod   int64
	irqJitter   int64
	irqDeadline int64
	irqEvents   int
	irqBursts   int

	alloc    bool
	allocOps int
}

// effective interprets the IOSpec's zero values against the defaults and the
// workload scale. Pure: it never mutates the spec (see the IOSpec doc for
// why that matters to checkpoint fingerprints).
func (s IOSpec) effective(workloadScale float64) ioParams {
	if workloadScale <= 0 {
		workloadScale = 1
	}
	def := func(v, d int) int {
		if v == 0 {
			return d
		}
		return v
	}
	def64 := func(v, d int64) int64 {
		if v == 0 {
			return d
		}
		return v
	}
	prm := ioParams{
		dma:            s.DMADescriptors >= 0,
		dmaDescriptors: int(scale(int64(def(s.DMADescriptors, 48)), workloadScale)),
		dmaBurstBeats:  def(s.DMABurstBeats, 16),
		dmaMinBytes:    def(s.DMAMinBytes, 2048),
		dmaMaxBytes:    def(s.DMAMaxBytes, 8192),
		dmaPosted:      s.DMAPostedWrites,

		irqAgents:   def(s.IRQAgents, 2),
		irqPeriod:   def64(s.IRQPeriodCycles, 400),
		irqJitter:   def64(s.IRQJitterCycles, 32),
		irqDeadline: def64(s.IRQDeadlineCycles, 256),
		irqEvents:   int(scale(int64(def(s.IRQEvents, 48)), workloadScale)),
		irqBursts:   def(s.IRQBursts, 4),

		alloc:    s.AllocOps >= 0,
		allocOps: int(scale(int64(def(s.AllocOps, 240)), workloadScale)),
	}
	if prm.irqAgents < 0 {
		prm.irqAgents = 0
	}
	if prm.dmaMaxBytes < prm.dmaMinBytes {
		prm.dmaMaxBytes = prm.dmaMinBytes
	}
	return prm
}

// Name returns a compact identifier like "STBus/distributed/lmi+ddr".
func (s Spec) Name() string {
	return fmt.Sprintf("%s/%s/%s", s.Protocol, s.Topology, s.Memory)
}
