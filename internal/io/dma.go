package io

import (
	"fmt"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/iptg"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/sim"
)

// DMAConfig parameterizes a descriptor-chain DMA engine.
type DMAConfig struct {
	Name string
	// Descriptors is the chain length: how many linked descriptors the
	// engine walks before raising its final completion.
	Descriptors int
	// DescBase is the memory address of the first descriptor; descriptor
	// i lives at DescBase + i*DescBeats*BytesPerBeat (linked chain laid
	// out by the driver). DescBeats is the descriptor size in bus beats
	// (default 4: a 32-byte descriptor at the 8-byte beat width).
	DescBase  uint64
	DescBeats int
	// SrcBase/DstBase/RegionSize bound the scatter/gather windows: each
	// payload chunk reads from a gather slice drawn inside
	// [SrcBase, SrcBase+RegionSize) and writes a scatter slice inside
	// [DstBase, DstBase+RegionSize).
	SrcBase, DstBase uint64
	RegionSize       uint64
	// MinBytes/MaxBytes bound the per-descriptor payload, drawn uniformly
	// when the descriptor is decoded.
	MinBytes, MaxBytes int
	// BurstBeats is the programmed burst length: payload moves in bus
	// transactions of at most this many beats.
	BurstBeats int
	// Outstanding bounds simultaneously in-flight payload transactions.
	Outstanding int
	// BytesPerBeat is the engine's native data width.
	BytesPerBeat int
	// PostedWrites marks scatter writes as posted (the completion
	// writeback is always tracked).
	PostedWrites bool
	// GapCycles idles the engine between a descriptor's completion
	// writeback and the next descriptor fetch.
	GapCycles int64
	// Prio is the request priority label.
	Prio int
	// PortReqDepth/PortRespDepth size the bus interface FIFOs.
	PortReqDepth  int
	PortRespDepth int
	// Seed makes the engine's descriptor contents deterministic.
	Seed uint64
}

func (c *DMAConfig) normalize() error {
	if c.Name == "" {
		return fmt.Errorf("io: DMA engine needs a name")
	}
	if c.Descriptors <= 0 {
		return fmt.Errorf("io: DMA engine %q: non-positive descriptor count %d", c.Name, c.Descriptors)
	}
	if c.DescBeats <= 0 {
		c.DescBeats = 4
	}
	if c.BytesPerBeat <= 0 {
		c.BytesPerBeat = 8
	}
	if c.BurstBeats <= 0 {
		c.BurstBeats = 16
	}
	if c.MinBytes <= 0 {
		c.MinBytes = 2048
	}
	if c.MaxBytes < c.MinBytes {
		c.MaxBytes = c.MinBytes
	}
	if c.Outstanding <= 0 {
		c.Outstanding = 4
	}
	if c.RegionSize == 0 {
		c.RegionSize = 1 << 21
	}
	if c.PortReqDepth <= 0 {
		c.PortReqDepth = 4
	}
	if c.PortRespDepth <= 0 {
		c.PortRespDepth = 8
	}
	if c.GapCycles < 0 {
		c.GapCycles = 0
	}
	return nil
}

// Transaction kinds, the tags of the engine's tracked requests.
const (
	dmaKindFetch = iota
	dmaKindRead
	dmaKindWrite
	dmaKindWriteback
	// dmaKindNone marks "nothing to issue" in the state machine's next.
	dmaKindNone
)

// Engine is the descriptor-chain DMA: a sim.Clocked initiator that fetches
// linked descriptors from memory, moves each descriptor's payload as gather
// reads followed by scatter writes at the programmed burst length, posts a
// completion writeback into the descriptor's status word, then follows the
// link to the next descriptor. Its Issuer tags each tracked request with its
// kind, and its one statistics row ("chain") counts the bytes the chain
// moved: the scatter writes' payload only.
type Engine struct {
	iptg.Issuer
	cfg DMAConfig
	rng *sim.Rand

	// Per-chain progress: desc is the current descriptor index.
	desc    int
	gapLeft int64
	// Per-descriptor state machine.
	fetchIssued  bool
	fetchDone    bool
	chunksTotal  int
	lastBeats    int
	readsIssued  int
	readsDone    int
	writesIssued int
	writesDone   int
	wbIssued     bool

	descsFetched int64
}

// NewDMA builds a descriptor-chain DMA engine.
func NewDMA(cfg DMAConfig, clk *sim.Clock, ids *bus.IDSource, origin int) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	en := &Engine{
		cfg: cfg,
		rng: sim.NewRand(cfg.Seed ^ 0xd3a),
	}
	en.Init(bus.NewInitiatorPort(cfg.Name, cfg.PortReqDepth, cfg.PortRespDepth), clk, ids, origin,
		[]string{"chain"}, en.complete)
	return en, nil
}

// Done reports whether the whole descriptor chain has been processed.
func (en *Engine) Done() bool { return en.desc >= en.cfg.Descriptors && en.InFlight() == 0 }

// burstBytes is the payload carried by one full programmed burst.
func (en *Engine) burstBytes() int { return en.cfg.BurstBeats * en.cfg.BytesPerBeat }

// Eval collects responses and issues at most one new transaction per cycle.
func (en *Engine) Eval() {
	en.Collect()
	if en.gapLeft > 0 {
		en.gapLeft--
		return
	}
	en.issue()
}

// Update commits the port FIFOs and, with no response to collect, sleeps
// through the inter-descriptor gap, or until a response arrives when the
// state machine has nothing to issue, or until the full request FIFO gives
// up an entry.
func (en *Engine) Update() {
	port := en.Port()
	port.Update()
	switch {
	case port.Resp.Len() != 0:
		// collects at the next edge
	case en.gapLeft > 0:
		en.Activity().SleepUntil(en.Clock().Cycles() + en.gapLeft + 1)
	case en.next() == dmaKindNone || !port.Req.CanPush():
		en.Activity().Sleep()
	}
}

// CreditIdle books n skipped idle edges: the gap countdown.
func (en *Engine) CreditIdle(n int64) { en.gapLeft -= min(en.gapLeft, n) }

// complete advances the state machine when a tracked transaction of the
// given kind completes.
func (en *Engine) complete(kind int) {
	switch kind {
	case dmaKindFetch:
		en.decodeDescriptor()
	case dmaKindRead:
		en.readsDone++
	case dmaKindWrite:
		en.writesDone++
	case dmaKindWriteback:
		en.advanceChain()
	}
}

// decodeDescriptor interprets the just-fetched descriptor. The simulator is
// timing-accurate, not data-accurate: the descriptor's payload size is drawn
// deterministically from the engine's seeded PRNG, standing in for the
// contents the fetch returned.
func (en *Engine) decodeDescriptor() {
	en.fetchDone = true
	en.descsFetched++
	payload := en.rng.Range(en.cfg.MinBytes, en.cfg.MaxBytes)
	bb := en.burstBytes()
	en.chunksTotal = ceilDiv(payload, bb)
	if en.chunksTotal < 1 {
		en.chunksTotal = 1
	}
	tail := payload - (en.chunksTotal-1)*bb
	en.lastBeats = ceilDiv(tail, en.cfg.BytesPerBeat)
	if en.lastBeats < 1 {
		en.lastBeats = 1
	}
}

// advanceChain follows the link to the next descriptor after the completion
// writeback lands.
func (en *Engine) advanceChain() {
	en.desc++
	en.fetchIssued = false
	en.fetchDone = false
	en.chunksTotal = 0
	en.lastBeats = 0
	en.readsIssued = 0
	en.readsDone = 0
	en.writesIssued = 0
	en.writesDone = 0
	en.wbIssued = false
	en.gapLeft = en.cfg.GapCycles
}

// chunkBeats returns the burst length of payload chunk i.
func (en *Engine) chunkBeats(i int) int {
	if i == en.chunksTotal-1 {
		return en.lastBeats
	}
	return en.cfg.BurstBeats
}

// descAddr is the memory address of descriptor i in the chain.
func (en *Engine) descAddr(i int) uint64 {
	return en.cfg.DescBase + uint64(i*en.cfg.DescBeats*en.cfg.BytesPerBeat)
}

// scatterGatherAddr draws one scatter/gather slice address inside the given
// window, aligned to the programmed burst.
func (en *Engine) scatterGatherAddr(base uint64) uint64 {
	bb := uint64(en.burstBytes())
	span := en.cfg.RegionSize / bb
	if span == 0 {
		span = 1
	}
	return base + uint64(en.rng.Intn(int(span)))*bb
}

// issue advances the descriptor state machine by at most one transaction:
// fetch the descriptor, then scatter writes chasing completed gather reads,
// then the completion writeback once the payload has fully moved.
func (en *Engine) issue() {
	if !en.Port().Req.CanPush() {
		return
	}
	switch en.next() {
	case dmaKindFetch:
		en.push(dmaKindFetch, bus.OpRead, en.descAddr(en.desc), en.cfg.DescBeats, false)
		en.fetchIssued = true
	case dmaKindWrite:
		beats := en.chunkBeats(en.writesIssued)
		en.push(dmaKindWrite, bus.OpWrite, en.scatterGatherAddr(en.cfg.DstBase), beats, en.cfg.PostedWrites)
		en.writesIssued++
		if en.cfg.PostedWrites {
			en.writesDone++ // posted writes complete at issue
		}
	case dmaKindRead:
		beats := en.chunkBeats(en.readsIssued)
		en.push(dmaKindRead, bus.OpRead, en.scatterGatherAddr(en.cfg.SrcBase), beats, false)
		en.readsIssued++
	case dmaKindWriteback:
		en.push(dmaKindWriteback, bus.OpWrite, en.descAddr(en.desc), 1, false)
		en.wbIssued = true
	}
}

// next returns the transaction kind the state machine issues next, or
// dmaKindNone while it waits for a response or after the chain is done.
func (en *Engine) next() int {
	inFlight := en.InFlight()
	switch {
	case en.desc >= en.cfg.Descriptors:
	case !en.fetchIssued:
		if inFlight == 0 {
			return dmaKindFetch
		}
	case !en.fetchDone:
	case en.readsDone > en.writesIssued && inFlight < en.cfg.Outstanding:
		return dmaKindWrite
	case en.readsIssued < en.chunksTotal && inFlight < en.cfg.Outstanding:
		return dmaKindRead
	case en.readsDone == en.chunksTotal && en.writesDone == en.chunksTotal && !en.wbIssued && inFlight == 0:
		return dmaKindWriteback
	}
	return dmaKindNone
}

// push issues one request tagged with its kind; only scatter writes count
// toward the bytes the chain moved.
func (en *Engine) push(kind int, op bus.Op, addr uint64, beats int, posted bool) {
	en.Issue(kind, bus.Request{
		Op:           op,
		Addr:         addr,
		Beats:        beats,
		BytesPerBeat: en.cfg.BytesPerBeat,
		Prio:         en.cfg.Prio,
		MsgEnd:       true,
		Posted:       posted && op == bus.OpWrite,
	}, kind == dmaKindWrite)
}

// Stats reports the engine as a single-agent IP row.
func (en *Engine) Stats() []iptg.AgentStats {
	out := en.Issuer.Stats()
	out[0].CurrentPhase = en.desc
	return out
}

// DescriptorsFetched returns how many descriptors the engine has fetched and
// decoded so far.
func (en *Engine) DescriptorsFetched() int64 { return en.descsFetched }

// RegisterMetrics registers the engine's telemetry: the shared "ip.<name>.*"
// initiator surface (so report tables render it like any other IP) plus the
// DMA-specific instruments under "io.dma.<name>.*".
func (en *Engine) RegisterMetrics(m *metrics.Registry, clock string) {
	en.Issuer.RegisterMetrics(m, clock)
	dp := "io.dma." + en.cfg.Name + "."
	m.CounterFunc(dp+"descriptors_fetched", func() int64 { return en.descsFetched })
	m.CounterFunc(dp+"bytes_moved", en.Bytes)
	m.GaugeFunc(dp+"in_flight", clock, func() int64 { return int64(en.InFlight()) })
}
