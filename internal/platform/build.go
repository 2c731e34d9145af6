package platform

import (
	"fmt"
	"sort"

	"mpsocsim/internal/ahb"
	"mpsocsim/internal/attr"
	"mpsocsim/internal/axi"
	"mpsocsim/internal/bridge"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/dspcore"
	"mpsocsim/internal/iptg"
	"mpsocsim/internal/lmi"
	"mpsocsim/internal/mem"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/replay"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/stbus"
	"mpsocsim/internal/telemetry"
	"mpsocsim/internal/tracecap"
)

// Clock frequencies of the reference platform (MHz).
const (
	CentralMHz = 250
	ClusterMHz = 200
	CPUMHz     = 400
)

// Initiator is the component surface shared by live IP traffic generators
// (iptg.Generator) and trace-driven replayers (replay.Initiator). The
// platform treats its traffic sources uniformly through it: run completion,
// statistics collection, pool wiring and capture attachment all go through
// this interface, so a Spec with Replay set swaps stimulus without touching
// any other subsystem.
type Initiator interface {
	sim.Clocked
	Name() string
	Origin() int
	Port() *bus.InitiatorPort
	Done() bool
	Issued() int64
	Completed() int64
	// MaxConcurrent bounds the simultaneously in-flight count; the stall
	// trackers size their depth from it.
	MaxConcurrent() int64
	Stats() []iptg.AgentStats
	UseRequestPool(*bus.RequestPool)
	UseAttribution(*attr.Collector)
	RegisterMetrics(*metrics.Registry, string)
}

// dspOrigin is the platform-wide initiator identity of the DSP core, chosen
// far above the traffic-generator origins (0..n-1).
const dspOrigin = 1000

// Platform is a fully assembled instance ready to Run.
type Platform struct {
	Spec       Spec
	Kernel     *sim.Kernel
	CentralClk *sim.Clock
	CPUClk     *sim.Clock

	// Metrics is the platform-wide instrument registry; every subsystem
	// registers its counters, gauges and histograms here during Build, in a
	// fixed order, so snapshots enumerate deterministically.
	Metrics *metrics.Registry

	centralFab bus.Fabric
	clusterFab []bus.Fabric
	gens       []Initiator
	genCluster []string
	genClk     []*sim.Clock
	bridges    map[string]*bridge.Bridge
	core       *dspcore.Core
	// dspLink is the point-to-point node at the DSP core interface; the
	// I/O subsystem's heap allocator attaches here when the DSP is present
	// (allocator traffic models software running on the core).
	dspLink *stbus.Node

	onchip *mem.Memory
	ctrl   *lmi.Controller

	// fabrics lists every interconnect node with its clock-domain name, in
	// build order, for metric registration.
	fabrics  []fabricEntry
	samplers []*metrics.Sampler

	// attrCol is the latency-attribution collector, nil until
	// EnableAttribution is called.
	attrCol *attr.Collector

	// idSrcs holds one request-ID source per initiator (traffic generators,
	// replayers, DSP core), each seeded into a disjoint range, which keeps
	// IDs globally unique without a shared counter. Each source's position is
	// snapshot state, so merging them would change snapshot bytes; IDs are
	// correlation-only and never reach a result or trace.
	idSrcs []*bus.IDSource
	pool   bus.RequestPool

	// timelineEvery and timelineCap are the EnableTimelines parameters, and
	// timelineLeft is the live countdown to the next sampling instant. All
	// three are Platform fields (not closure variables) so checkpoint/restore
	// can carry them: a restored run must sample at exactly the instants the
	// uninterrupted run would.
	timelineEvery int64
	timelineCap   int
	timelineLeft  int64

	// attrRetain remembers the retention depth EnableAttribution was called
	// with, so a snapshot can re-enable attribution identically on restore.
	attrRetain int

	// capture is the attached trace capture (nil unless AttachCapture was
	// called); retained so snapshots can carry the recorded streams.
	capture *tracecap.Capture

	// Progress-watchdog state of the run loop. Fields (not run-loop
	// locals) so a checkpointed run resumes with the same observation
	// history — stall detection after restore fires at exactly the instants
	// an uninterrupted run would. Build initializes wdLastProg to -1 (no
	// observation yet).
	wdLastProg  int64
	wdLastCheck int64
	// wdCounters holds the counter baseline copied at the last watchdog
	// observation and wdPrevCounters the one before it (both preallocated in
	// Build, written in place), so a stall report can show which counters
	// still moved in the final window — falling back to the previous window
	// when the run ended on the very cycle the baseline was refreshed (whole-
	// ms budgets land on watchdog-window multiples routinely, which would
	// otherwise diff a zero-width window). wdObservations counts refreshes;
	// wdObservedCycle is the cycle of the newest one.
	wdCounters      []metrics.CounterValue
	wdPrevCounters  []metrics.CounterValue
	wdObservations  int64
	wdObservedCycle int64

	// Live-telemetry state (nil/zero until EnableTelemetry): the snapshot
	// collector, its cadence in central cycles, the next snapshot cycle and
	// the last snapshotted cycle (to avoid a duplicate final record).
	tele          *telemetry.Collector
	teleEvery     int64
	teleNext      int64
	teleLastCycle int64

	// stallTrackers are the always-on run-health probes, one per traffic
	// source, parallel to gens. Build attaches them; StallReport reads them.
	stallTrackers []*telemetry.PortTracker

	// resumedCycles marks the restore point (zero for a fresh Build);
	// Result.ResumedFromCycle reports it.
	resumedCycles int64

	// samplerAttached marks that the CSV/VCD tracing sampler (AttachSampler
	// in tracing.go) was installed; Snapshot refuses it, because its state
	// lives in a closure the snapshot cannot carry.
	samplerAttached bool
}

// newIDSource mints the per-initiator request-ID source for the given
// origin. Bases are spaced 2^40 apart — wider than any run's transaction
// count — so ranges never collide.
func (p *Platform) newIDSource(origin int) *bus.IDSource {
	src := bus.NewIDSource(uint64(origin+1) << 40)
	p.idSrcs = append(p.idSrcs, &src)
	return p.idSrcs[len(p.idSrcs)-1]
}

// fabricEntry pairs an interconnect node with the clock domain it runs in.
type fabricEntry struct {
	fab   bus.Fabric
	clock string
}

// instrumented is the metric-registration surface every concrete fabric
// (stbus.Node, ahb.Bus, axi.Bus) provides.
type instrumented interface {
	RegisterMetrics(*metrics.Registry, string)
}

// Build assembles a platform instance from the spec.
func Build(spec Spec) (*Platform, error) {
	spec.normalize()
	switch spec.Protocol {
	case STBus, AHB, AXI:
	default:
		return nil, fmt.Errorf("platform: unknown protocol %d", spec.Protocol)
	}
	p := &Platform{
		Spec:       spec,
		Kernel:     sim.NewKernel(),
		bridges:    map[string]*bridge.Bridge{},
		wdLastProg: -1,
	}
	p.CentralClk = p.Kernel.NewClock("central", CentralMHz)
	p.centralFab = p.newFabric("n8")
	p.fabrics = append(p.fabrics, fabricEntry{p.centralFab, "central"})

	if err := p.buildMemory(); err != nil {
		return nil, err
	}
	if err := p.buildClusters(); err != nil {
		return nil, err
	}
	if spec.WithDSP {
		if err := p.buildDSP(); err != nil {
			return nil, err
		}
	}
	if err := p.buildIO(); err != nil {
		return nil, err
	}
	// The central fabric evaluates after all its initiator-side feeders
	// have been registered (registration order within a clock is the
	// deterministic evaluation order; correctness is order-independent
	// thanks to two-phase FIFOs).
	p.CentralClk.Register(p.centralFab)
	if p.onchip != nil {
		p.CentralClk.Register(p.onchip)
	}
	if p.ctrl != nil {
		p.CentralClk.Register(p.ctrl)
	}
	p.wirePool()
	p.registerMetrics()
	p.attachStallTrackers()
	p.wdCounters = make([]metrics.CounterValue, len(p.Metrics.Counters()))
	p.wdPrevCounters = make([]metrics.CounterValue, len(p.Metrics.Counters()))
	return p, nil
}

// registerMetrics builds the instrument registry. Registration happens once
// per Build in a fixed order — fabrics in build order, bridges by sorted
// name, memory subsystem, DSP core, then initiators in attachment order — so
// every run of the same spec enumerates instruments identically. All
// instruments are func-backed reads of counters the components already
// maintain: attaching the registry adds no hot-path cost.
func (p *Platform) registerMetrics() {
	p.Metrics = metrics.NewRegistry()
	for _, fe := range p.fabrics {
		if in, ok := fe.fab.(instrumented); ok {
			in.RegisterMetrics(p.Metrics, fe.clock)
		}
	}
	names := make([]string, 0, len(p.bridges))
	for name := range p.bridges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p.bridges[name].RegisterMetrics(p.Metrics)
	}
	if p.onchip != nil {
		p.onchip.RegisterMetrics(p.Metrics, "central")
	}
	if p.ctrl != nil {
		p.ctrl.RegisterMetrics(p.Metrics, "central")
	}
	if p.core != nil {
		p.core.RegisterMetrics(p.Metrics, "cpu")
	}
	for i, g := range p.gens {
		g.RegisterMetrics(p.Metrics, p.genClk[i].Name())
	}
}

// EnableTimelines attaches one gauge sampler per clock domain, turning every
// registered gauge into a cycle-stamped timeline (the counter tracks of the
// Chrome trace export and the series of the JSON report). every is the
// sampling window in central-clock cycles and capSamples the ring capacity
// per domain; both fall back to the metrics package defaults when <= 0.
// Call after Build and before Run — the samplers' ring storage is
// preallocated here, so the steady-state zero-allocation invariant holds
// with timelines enabled. Calling it twice is a no-op.
//
// All domains are sampled by a single trigger registered on the central
// clock: per-cycle cost is one decrement and one branch for the whole
// platform, instead of an Eval/Update interface dispatch per domain per
// edge (which measurably slows the kernel's hot loop). Each sampled row is
// stamped with its own domain's cycle counter at the trigger instant, so
// timestamps stay exact in every domain.
func (p *Platform) EnableTimelines(every int64, capSamples int) {
	if len(p.samplers) > 0 {
		return
	}
	if every <= 0 {
		every = metrics.DefaultSampleEvery
	}
	clocks := p.Kernel.Clocks()
	for _, clk := range clocks {
		s := p.Metrics.NewSampler(clk.Name(), clk.PeriodPS(), every, capSamples)
		p.samplers = append(p.samplers, s)
	}
	p.timelineEvery = every
	p.timelineCap = capSamples
	p.timelineLeft = every
	p.CentralClk.Register(&sim.ClockedFunc{OnEval: func() {
		p.timelineLeft--
		if p.timelineLeft > 0 {
			return
		}
		p.timelineLeft = every
		for i, s := range p.samplers {
			s.Sample(clocks[i].Cycles())
		}
	}})
}

// attributable is the attribution-enable surface every concrete fabric
// (stbus.Node, ahb.Bus, axi.Bus) provides: the shared collector plus a
// closure returning the fabric's own clock edge in absolute picoseconds.
type attributable interface {
	EnableAttribution(*attr.Collector, func() int64)
}

// EnableAttribution builds the platform-wide latency-attribution collector
// and hands it to every component that stamps or closes phase records: the
// fabrics (arbitration/transfer/target-queue phases), the bridges (store &
// forward, CDC, downstream issue), the memory subsystem (service and SDRAM
// phases, posted-write completion) and the initiators (record completion at
// the final response beat). Each component stamps with its *own* clock's
// NowPS, so segments share one monotonic picosecond axis across domains.
//
// Call after Build and before Run — the collector's record storage is
// preallocated, so the steady-state zero-allocation invariant holds with
// attribution enabled. retain > 0 additionally keeps the last retain
// finished transactions verbatim for per-transaction export (Chrome-trace
// phase sub-slices). Calling it twice is a no-op returning the existing
// collector.
func (p *Platform) EnableAttribution(retain int) *attr.Collector {
	if p.attrCol != nil {
		return p.attrCol
	}
	col := attr.NewCollector(0)
	for _, g := range p.gens {
		col.AddInitiator(g.Origin(), g.Name())
	}
	if p.core != nil {
		col.AddInitiator(dspOrigin, p.core.Name())
	}
	if retain > 0 {
		col.EnableRetention(retain)
	}
	p.attrRetain = retain
	clocks := map[string]*sim.Clock{}
	for _, clk := range p.Kernel.Clocks() {
		clocks[clk.Name()] = clk
	}
	for _, fe := range p.fabrics {
		clk := clocks[fe.clock]
		if a, ok := fe.fab.(attributable); ok && clk != nil {
			a.EnableAttribution(col, clk.NowPS)
		}
	}
	for _, br := range p.bridges {
		br.EnableAttribution()
	}
	if p.onchip != nil {
		p.onchip.EnableAttribution(col, p.CentralClk.NowPS)
	}
	if p.ctrl != nil {
		p.ctrl.EnableAttribution(col, p.CentralClk.NowPS)
	}
	for _, g := range p.gens {
		g.UseAttribution(col)
	}
	if p.core != nil {
		p.core.UseAttribution(col)
	}
	p.attrCol = col
	return col
}

// Attribution returns the latency-attribution collector (nil unless
// EnableAttribution was called).
func (p *Platform) Attribution() *attr.Collector { return p.attrCol }

// Samplers returns the per-domain gauge samplers (empty unless
// EnableTimelines was called).
func (p *Platform) Samplers() []*metrics.Sampler { return p.samplers }

// wirePool hands every component the platform-wide request pool so steady
// state mints no new bus.Request values. A platform is stepped from a single
// goroutine, so one unsynchronized pool is safe.
func (p *Platform) wirePool() {
	for _, g := range p.gens {
		g.UseRequestPool(&p.pool)
	}
	for _, br := range p.bridges {
		br.UseRequestPool(&p.pool)
	}
	if p.onchip != nil {
		p.onchip.UseRequestPool(&p.pool)
	}
	if p.ctrl != nil {
		p.ctrl.UseRequestPool(&p.pool)
	}
	if p.core != nil {
		p.core.UseRequestPool(&p.pool)
	}
}

// MustBuild is Build that panics on error.
func MustBuild(spec Spec) *Platform {
	p, err := Build(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// newFabric constructs one interconnect layer of the spec's protocol. All
// layers are memory-centric: every address decodes to target 0.
func (p *Platform) newFabric(name string) bus.Fabric {
	amap := bus.Single(0)
	switch p.Spec.Protocol {
	case AHB:
		return ahb.New(name, ahb.Config{BytesPerBeat: 8}, amap)
	case AXI:
		return axi.New(name, axi.Config{MaxOutstanding: p.Spec.MaxOutstanding, BytesPerBeat: 8}, amap)
	default:
		return stbus.NewNode(name, stbus.Config{
			Type:               p.Spec.STBusType,
			MaxOutstanding:     p.Spec.MaxOutstanding,
			MessageArbitration: !p.Spec.NoMessageArbitration,
			BytesPerBeat:       8,
		}, amap)
	}
}

// clusterBridgeConfig returns the bridge used between a cluster layer and
// the central node: the proprietary split-capable GenConv for STBus
// platforms, the lightweight blocking implementation for AHB and AXI
// (paper §3.2: those bridges "implement basic bridging functionality").
func (p *Platform) clusterBridgeConfig() bridge.Config {
	lat := p.Spec.BridgeLatency
	if lat <= 0 {
		lat = 1
	}
	if p.Spec.Protocol == STBus {
		cfg := bridge.GenConv(lat)
		cfg.MaxOutstanding = p.Spec.MaxOutstanding
		return cfg
	}
	return bridge.Lightweight(lat)
}

// buildMemory attaches the selected memory subsystem to the central node.
func (p *Platform) buildMemory() error {
	switch p.Spec.Memory {
	case OnChip:
		p.onchip = mem.New("shmem", mem.Config{
			WaitStates: p.Spec.OnChipWaitStates,
			ReqDepth:   1, // single-slot buffering (paper §4.2)
			RespDepth:  p.Spec.TargetRespDepth,
		})
		p.centralFab.AttachTarget(p.onchip.Port())
		return nil
	case LMIDDR:
		cfg := p.Spec.LMI
		if err := cfg.SDRAM.Validate(); err != nil {
			return fmt.Errorf("platform: %w", err)
		}
		p.ctrl = lmi.New("lmi", cfg)
		if p.Spec.Protocol == STBus {
			// the LMI is STBus-native: direct attach
			p.centralFab.AttachTarget(p.ctrl.Port())
			return nil
		}
		// Other protocols need a conversion bridge in front of the
		// LMI's native STBus interface; whether it supports split
		// transactions is the lever of §4.2.
		var bcfg bridge.Config
		if p.Spec.SplitLMIBridge {
			bcfg = bridge.GenConv(1)
			if p.Spec.Protocol == AHB {
				// AHB consumes responses strictly in issue order
				// (non-split bus): the split converter must reorder
				// responses back into request order.
				bcfg.InOrderUpstream = true
			}
		} else {
			bcfg = bridge.Lightweight(1)
		}
		bcfg.SyncCycles = 0 // same clock domain
		br := bridge.New("lmi_bridge", bcfg, p.CentralClk, p.CentralClk)
		p.bridges["lmi_bridge"] = br
		lmiNode := stbus.NewNode("lmi_node", stbus.Config{
			Type: stbus.Type3, MaxOutstanding: 8, BytesPerBeat: 8,
		}, bus.Single(0))
		p.fabrics = append(p.fabrics, fabricEntry{lmiNode, "central"})
		p.centralFab.AttachTarget(br.TargetPort())
		lmiNode.AttachInitiator(br.InitiatorPort())
		lmiNode.AttachTarget(p.ctrl.Port())
		p.CentralClk.Register(br.TargetSide)
		p.CentralClk.Register(br.InitiatorSide)
		p.CentralClk.Register(lmiNode)
		return nil
	default:
		return fmt.Errorf("platform: unknown memory kind %d", p.Spec.Memory)
	}
}

// buildClusters instantiates the traffic-generating subsystem in the
// selected topology.
func (p *Platform) buildClusters() error {
	clusters := referenceWorkload(p.Spec)
	origin := 0
	switch p.Spec.Topology {
	case Collapsed:
		// every actor directly on the central node
		for _, cl := range clusters {
			for _, ipCfg := range cl.ips {
				gen, err := p.newInitiator(ipCfg, p.CentralClk, origin)
				if err != nil {
					return err
				}
				origin++
				p.centralFab.AttachInitiator(gen.Port())
				p.CentralClk.Register(gen)
				p.gens = append(p.gens, gen)
				p.genCluster = append(p.genCluster, cl.name)
				p.genClk = append(p.genClk, p.CentralClk)
			}
		}
	case Distributed:
		for _, cl := range clusters {
			freq := cl.freqMHz
			if freq <= 0 {
				freq = ClusterMHz
			}
			clk := p.Kernel.NewClock(cl.name, freq)
			fab := p.newFabric(cl.name)
			p.fabrics = append(p.fabrics, fabricEntry{fab, cl.name})
			br := bridge.New(cl.name+"_br", p.clusterBridgeConfig(), clk, p.CentralClk)
			p.bridges[cl.name+"_br"] = br
			fab.AttachTarget(br.TargetPort())
			p.centralFab.AttachInitiator(br.InitiatorPort())
			for _, ipCfg := range cl.ips {
				gen, err := p.newInitiator(ipCfg, clk, origin)
				if err != nil {
					return err
				}
				origin++
				fab.AttachInitiator(gen.Port())
				clk.Register(gen)
				p.gens = append(p.gens, gen)
				p.genCluster = append(p.genCluster, cl.name)
				p.genClk = append(p.genClk, clk)
			}
			clk.Register(fab)
			clk.Register(br.TargetSide)
			p.CentralClk.Register(br.InitiatorSide)
			p.clusterFab = append(p.clusterFab, fab)
		}
	default:
		return fmt.Errorf("platform: unknown topology %d", p.Spec.Topology)
	}
	return nil
}

// newInitiator builds the traffic source for one IP slot: the live generator
// normally, or — when the spec carries a replay trace — the trace-driven
// replayer fed from the stream recorded at the same-named IP. The replayer
// inherits the IP's port depths, so the fabric sees an identical interface.
func (p *Platform) newInitiator(ipCfg iptg.Config, clk *sim.Clock, origin int) (Initiator, error) {
	if p.Spec.Replay == nil {
		return iptg.New(ipCfg, clk, p.newIDSource(origin), origin)
	}
	st := p.Spec.Replay.Stream(ipCfg.Name)
	if st == nil {
		return nil, fmt.Errorf("platform: replay trace %q has no stream for initiator %q (trace streams: %v)",
			p.Spec.Replay.Platform, ipCfg.Name, p.Spec.Replay.StreamNames())
	}
	return replay.New(replay.Config{
		Stream:        st,
		Mode:          p.Spec.ReplayMode,
		Outstanding:   p.Spec.ReplayOutstanding,
		PortReqDepth:  ipCfg.PortReqDepth,
		PortRespDepth: ipCfg.PortRespDepth,
	}, clk, p.newIDSource(origin), origin)
}

// AttachCapture installs the capture's per-initiator stream probes on every
// traffic-source port, recording the full transaction stimulus of the run
// (issue cycle, opcode, address, burst shape, completion latency). Call
// after Build and before Run; the probes record inline with no per-event
// allocation in steady state, so TestZeroAllocSteadyState holds with capture
// enabled. Capture composes with replay: capturing a replayed run is how the
// round-trip determinism suite proves bit-identical reproduction.
func (p *Platform) AttachCapture(c *tracecap.Capture) {
	for i, g := range p.gens {
		// Tee over the always-on stall tracker rather than displacing it —
		// a port has a single Probe slot.
		g.Port().Probe = bus.TeeProbes(g.Port().Probe, c.Probe(g.Name(), p.genClk[i].PeriodPS()))
	}
	p.capture = c
}

// Capture returns the attached trace capture (nil unless AttachCapture was
// called).
func (p *Platform) Capture() *tracecap.Capture { return p.capture }

// buildDSP adds the ST220-class core behind its upsize (32->64 bit) and
// frequency (400->250 MHz) converter.
func (p *Platform) buildDSP() error {
	const mb = 1 << 20
	p.CPUClk = p.Kernel.NewClock("cpu", CPUMHz)
	iters := p.Spec.DSPIterations
	if iters <= 0 {
		iters = 1 << 40 // effectively endless background interference
	}
	// Default 64 KiB working set per array: larger than the default
	// 32 KiB D-cache, so the stream thrashes and interferes throughout.
	ws := uint64(64 << 10)
	if p.Spec.DSPWorkingSetKB > 0 {
		ws = uint64(p.Spec.DSPWorkingSetKB) << 10
	}
	prog := dspcore.StreamKernelWS(30*mb, 34*mb, iters, 32, ws)
	coreCfg := dspcore.DefaultConfig("st220")
	if p.Spec.DSPDCacheKB > 0 {
		coreCfg.DCache.SizeBytes = p.Spec.DSPDCacheKB << 10
	}
	core, err := dspcore.New(coreCfg, prog, p.CPUClk, p.newIDSource(dspOrigin), dspOrigin)
	if err != nil {
		return fmt.Errorf("platform: %w", err)
	}
	p.core = core

	var convCfg bridge.Config
	if p.Spec.Protocol == STBus {
		convCfg = bridge.GenConv(1)
	} else {
		convCfg = bridge.Lightweight(1)
	}
	convCfg.SrcBytesPerBeat = 4
	convCfg.DstBytesPerBeat = 8
	conv := bridge.New("st220_conv", convCfg, p.CPUClk, p.CentralClk)
	p.bridges["st220_conv"] = conv

	// A 1x1 node connects the core's initiator port to the converter's
	// target side (point-to-point wiring at the core interface).
	link := stbus.NewNode("st220_link", stbus.Config{
		Type: stbus.Type3, MaxOutstanding: 4, BytesPerBeat: 4,
	}, bus.Single(0))
	p.dspLink = link
	p.fabrics = append(p.fabrics, fabricEntry{link, "cpu"})
	link.AttachInitiator(p.core.Port())
	link.AttachTarget(conv.TargetPort())
	p.centralFab.AttachInitiator(conv.InitiatorPort())

	p.CPUClk.Register(p.core)
	p.CPUClk.Register(link)
	p.CPUClk.Register(conv.TargetSide)
	p.CentralClk.Register(conv.InitiatorSide)
	return nil
}

// Initiators returns the platform's traffic sources (live generators or
// trace-driven replayers), in attachment order.
func (p *Platform) Initiators() []Initiator { return p.gens }

// Generators returns the platform's traffic sources. Deprecated alias of
// Initiators, kept for callers predating trace replay.
func (p *Platform) Generators() []Initiator { return p.gens }

// Core returns the DSP core (nil when WithDSP is false).
func (p *Platform) Core() *dspcore.Core { return p.core }

// Controller returns the LMI controller (nil for on-chip memory).
func (p *Platform) Controller() *lmi.Controller { return p.ctrl }

// OnChipMemory returns the shared memory (nil for the LMI variant).
func (p *Platform) OnChipMemory() *mem.Memory { return p.onchip }

// Bridge returns a bridge by name (nil if absent).
func (p *Platform) Bridge(name string) *bridge.Bridge { return p.bridges[name] }

// CentralFabric returns the central interconnect.
func (p *Platform) CentralFabric() bus.Fabric { return p.centralFab }
