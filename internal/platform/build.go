package platform

import (
	"fmt"

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

// issueSide is the surface of iptg.Issuer the platform reads and wires
// uniformly on every issue side it builds: the traffic sources and the DSP
// core, all of which embed an Issuer. The stall report reads the in-flight
// set and last-progress cycles through it; Build and EnableAttribution hand
// it the request pool and the attribution collector.
type issueSide interface {
	Name() string
	Origin() int
	Port() *bus.InitiatorPort
	Clock() *sim.Clock
	Issued() int64
	Completed() int64
	InFlight() int
	Oldest() (id uint64, issueCycle int64, ok bool)
	LastIssueCycle() int64
	LastCompleteCycle() int64
	UseRequestPool(*bus.RequestPool)
	UseAttribution(*attr.Collector)
}

// Initiator is the component surface shared by live IP traffic generators
// (iptg.Generator), trace-driven replayers (replay.Initiator) and the I/O
// initiators of internal/io, all built on iptg.Issuer. The platform treats
// its traffic sources uniformly through it: run completion, statistics
// collection, pool wiring and capture attachment all go through this
// interface, so a Spec with Replay set swaps stimulus without touching any
// other subsystem. The DSP core shares only the issue side: it never gates
// a run, and its statistics are its own.
type Initiator interface {
	sim.Clocked
	issueSide
	Done() bool
	Stats() []iptg.AgentStats
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
	gens       []Initiator
	bridges    map[string]*bridge.Bridge
	core       *dspcore.Core
	// dspLink is the point-to-point node at the DSP core interface; the
	// I/O subsystem's heap allocator attaches here when the DSP is present
	// (allocator traffic models software running on the core).
	dspLink *stbus.Node

	onchip []*mem.Memory
	ctrl   *lmi.Controller

	// fabrics lists every interconnect node with its clock-domain name, in
	// build order, for metric registration.
	fabrics []fabricEntry

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

	// resumedCycles marks the restore point (zero for a fresh Build);
	// Result.ResumedFromCycle reports it.
	resumedCycles int64
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

// Build assembles a platform instance from the spec. Before building
// anything it rejects a spec with an enum outside its range or a sizing
// knob past its bound (Spec.check), whichever entry point the spec came
// from: a spec file, mpsocsim -set pairs or a Go caller.
func Build(spec Spec) (*Platform, error) {
	if err := spec.check(); err != nil {
		return nil, err
	}
	spec.normalize()
	p := &Platform{
		Spec:       spec,
		Kernel:     sim.NewKernel(),
		bridges:    map[string]*bridge.Bridge{},
		wdLastProg: -1,
	}
	p.CentralClk = p.Kernel.NewClock("central", CentralMHz)
	p.centralFab = p.newFabric("n8", memoryMap(max(spec.OnChipMemories, 1)))
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
	for _, m := range p.onchip {
		p.CentralClk.Register(m)
	}
	if p.ctrl != nil {
		p.CentralClk.Register(p.ctrl)
	}
	p.wirePool()
	p.registerMetrics()
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
	for _, name := range sortedBridgeNames(p.bridges) {
		p.bridges[name].RegisterMetrics(p.Metrics)
	}
	for _, m := range p.onchip {
		m.RegisterMetrics(p.Metrics, "central")
	}
	if p.ctrl != nil {
		p.ctrl.RegisterMetrics(p.Metrics, "central")
	}
	if p.core != nil {
		p.core.RegisterMetrics(p.Metrics, "cpu")
	}
	for _, g := range p.gens {
		g.RegisterMetrics(p.Metrics, g.Clock().Name())
	}
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
	sides := p.issueSides()
	for _, s := range sides {
		col.AddInitiator(s.Origin(), s.Name())
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
	for _, m := range p.onchip {
		m.EnableAttribution(col, p.CentralClk.NowPS)
	}
	if p.ctrl != nil {
		p.ctrl.EnableAttribution(col, p.CentralClk.NowPS)
	}
	for _, s := range sides {
		s.UseAttribution(col)
	}
	p.attrCol = col
	return col
}

// Attribution returns the latency-attribution collector (nil unless
// EnableAttribution was called).
func (p *Platform) Attribution() *attr.Collector { return p.attrCol }

// wirePool hands every component the platform-wide request pool so steady
// state mints no new bus.Request values. A platform is stepped from a single
// goroutine, so one unsynchronized pool is safe.
func (p *Platform) wirePool() {
	for _, s := range p.issueSides() {
		s.UseRequestPool(&p.pool)
	}
	for _, br := range p.bridges {
		br.UseRequestPool(&p.pool)
	}
	for _, m := range p.onchip {
		m.UseRequestPool(&p.pool)
	}
	if p.ctrl != nil {
		p.ctrl.UseRequestPool(&p.pool)
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

// newFabric constructs one interconnect layer of the spec's protocol over
// the address map amap.
func (p *Platform) newFabric(name string, amap *bus.AddrMap) bus.Fabric {
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

// memoryMap is the central node's address map over n memories: memory t
// decodes [t·16 MiB, (t+1)·16 MiB) and the last one everything above, so a
// single memory decodes every address.
func memoryMap(n int) *bus.AddrMap {
	regions := make([]bus.Region, n)
	for t := range regions {
		regions[t] = bus.Region{Base: uint64(t) << 24, Size: 1 << 24, Target: t}
	}
	last := &regions[n-1]
	last.Size = 1<<63 - last.Base
	return bus.MustAddrMap(regions...)
}

// buildMemory attaches the selected memory subsystem to the central node.
func (p *Platform) buildMemory() error {
	switch p.Spec.Memory {
	case OnChip:
		// Memory t serves target t of the central node's memoryMap.
		n := max(p.Spec.OnChipMemories, 1)
		for t := 0; t < n; t++ {
			name := "shmem"
			if n > 1 {
				name = fmt.Sprintf("shmem%d", t)
			}
			m := mem.New(name, mem.Config{
				WaitStates: p.Spec.OnChipWaitStates,
				ReqDepth:   1, // single-slot buffering (paper §4.2)
				RespDepth:  p.Spec.TargetRespDepth,
			})
			p.centralFab.AttachTarget(m.Port())
			p.onchip = append(p.onchip, m)
		}
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

// buildClusters attaches the spec's traffic layers (see workload): every IP
// directly on the central node in the collapsed topology, each layer on a
// bridged fabric of its own in the distributed one.
func (p *Platform) buildClusters() error {
	for _, cl := range workload(p.Spec) {
		fab, clk := p.centralFab, p.CentralClk
		var br *bridge.Bridge
		if p.Spec.Topology == Distributed {
			fab, clk, br = p.openLayer(cl.name, cl.freqMHz)
		}
		for _, ipCfg := range cl.ips {
			err := p.addInitiator(fab, clk, ipCfg.Name, ipCfg.PortReqDepth, ipCfg.PortRespDepth,
				func(ids *bus.IDSource, origin int) (Initiator, error) {
					return iptg.New(ipCfg, clk, ids, origin)
				})
			if err != nil {
				return err
			}
		}
		if br != nil {
			p.closeLayer(fab, clk, br)
		}
	}
	return nil
}

// openLayer opens a traffic layer bridged into the central node: a clock of
// freqMHz (ClusterMHz when <= 0), a fabric whose only target is the bridge,
// and the bridge. The layer's initiators attach to the returned fabric and
// clock, and closeLayer then registers the rest, so the initiators evaluate
// before the fabric and the bridge.
func (p *Platform) openLayer(name string, freqMHz float64) (bus.Fabric, *sim.Clock, *bridge.Bridge) {
	if freqMHz <= 0 {
		freqMHz = ClusterMHz
	}
	clk := p.Kernel.NewClock(name, freqMHz)
	fab := p.newFabric(name, bus.Single(0))
	p.fabrics = append(p.fabrics, fabricEntry{fab, name})
	br := bridge.New(name+"_br", p.clusterBridgeConfig(), clk, p.CentralClk)
	p.bridges[name+"_br"] = br
	fab.AttachTarget(br.TargetPort())
	p.centralFab.AttachInitiator(br.InitiatorPort())
	return fab, clk, br
}

// closeLayer registers an opened layer's fabric and the bridge's target side
// on the layer clock, and the bridge's initiator side on the central clock.
func (p *Platform) closeLayer(fab bus.Fabric, clk *sim.Clock, br *bridge.Bridge) {
	clk.Register(fab)
	clk.Register(br.TargetSide)
	p.CentralClk.Register(br.InitiatorSide)
}

// addInitiator builds the traffic source of one initiator slot and attaches
// it to fab, registered on clk, as the platform's next origin. live builds
// the model normally; when the spec carries a replay trace, the
// trace-driven replayer fed from the stream recorded under name takes its
// place, with the model's port depths (reqDepth, respDepth; 0 keeps
// replay's defaults, which are also every model's), so the fabric sees an
// identical interface.
func (p *Platform) addInitiator(fab bus.Fabric, clk *sim.Clock, name string, reqDepth, respDepth int,
	live func(ids *bus.IDSource, origin int) (Initiator, error)) error {
	origin := len(p.gens)
	var gen Initiator
	var err error
	if p.Spec.Replay == nil {
		gen, err = live(p.newIDSource(origin), origin)
	} else if st := p.Spec.Replay.Stream(name); st == nil {
		err = fmt.Errorf("platform: replay trace %q has no stream for initiator %q (trace streams: %v)",
			p.Spec.Replay.Platform, name, p.Spec.Replay.StreamNames())
	} else {
		gen, err = replay.New(replay.Config{
			Stream:        st,
			Mode:          p.Spec.ReplayMode,
			Outstanding:   p.Spec.ReplayOutstanding,
			PortReqDepth:  reqDepth,
			PortRespDepth: respDepth,
		}, clk, p.newIDSource(origin), origin)
	}
	if err != nil {
		return err
	}
	fab.AttachInitiator(gen.Port())
	clk.Register(gen)
	p.gens = append(p.gens, gen)
	return nil
}

// AttachCapture installs the capture's per-initiator stream probes on every
// traffic-source port, recording the full transaction stimulus of the run
// (issue cycle, opcode, address, burst shape, completion latency). Call
// after Build and before Run; the probes record inline with no per-event
// allocation in steady state, so TestZeroAllocSteadyState holds with capture
// enabled. Capture composes with replay: capturing a replayed run is how the
// round-trip determinism suite proves bit-identical reproduction.
func (p *Platform) AttachCapture(c *tracecap.Capture) {
	for _, g := range p.gens {
		g.Port().Probe = c.Probe(g.Name(), g.Clock().PeriodPS())
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

// issueSides returns every issue side of the platform: the traffic sources
// in attachment order, then the DSP core when present.
func (p *Platform) issueSides() []issueSide {
	sides := make([]issueSide, 0, len(p.gens)+1)
	for _, g := range p.gens {
		sides = append(sides, g)
	}
	if p.core != nil {
		sides = append(sides, p.core)
	}
	return sides
}

// Core returns the DSP core (nil when WithDSP is false).
func (p *Platform) Core() *dspcore.Core { return p.core }

// Controller returns the LMI controller (nil for on-chip memory).
func (p *Platform) Controller() *lmi.Controller { return p.ctrl }

// OnChipMemories returns the on-chip memories in target order (none for the
// LMI variant).
func (p *Platform) OnChipMemories() []*mem.Memory { return p.onchip }

// Bridge returns a bridge by name (nil if absent).
func (p *Platform) Bridge(name string) *bridge.Bridge { return p.bridges[name] }

// CentralFabric returns the central interconnect.
func (p *Platform) CentralFabric() bus.Fabric { return p.centralFab }
