package io

import (
	"fmt"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/iptg"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/sim"
)

// AllocConfig parameterizes the software heap-allocator traffic source.
type AllocConfig struct {
	Name string
	// Ops is the total malloc/free operations performed over the run.
	Ops int
	// MinBytes/MaxBytes bound the allocation-size draw.
	MinBytes, MaxBytes int
	// HeapBase/HeapSize bound the modelled heap arena; the first 4 KiB of
	// the arena hold the allocator's size-class free-list bins.
	HeapBase uint64
	HeapSize uint64
	// LiveCap caps simultaneously live blocks: at the cap the allocator
	// must free before it can malloc (steady-state churn).
	LiveCap int
	// MallocFrac is the probability an unconstrained op is a malloc
	// (live==0 forces malloc, live==LiveCap forces free).
	MallocFrac float64
	// GapMean is the mean geometric idle gap between operations, in
	// cycles (software does real work between heap calls).
	GapMean float64
	// BytesPerBeat is the data width at the allocator's attach point.
	BytesPerBeat int
	// TouchBeatsCap caps the payload-touch write burst of a malloc.
	TouchBeatsCap int
	// Prio is the request priority label.
	Prio int
	// PortReqDepth/PortRespDepth size the bus interface FIFOs.
	PortReqDepth  int
	PortRespDepth int
	// Seed makes sizes, op choices and gaps deterministic.
	Seed uint64
}

func (c *AllocConfig) normalize() error {
	if c.Name == "" {
		return fmt.Errorf("io: heap allocator needs a name")
	}
	if c.Ops <= 0 {
		return fmt.Errorf("io: heap allocator %q: non-positive op count %d", c.Name, c.Ops)
	}
	if c.MinBytes <= 0 {
		c.MinBytes = 16
	}
	if c.MaxBytes < c.MinBytes {
		c.MaxBytes = 4096
		if c.MaxBytes < c.MinBytes {
			c.MaxBytes = c.MinBytes
		}
	}
	if c.LiveCap <= 0 {
		c.LiveCap = 32
	}
	if c.MallocFrac <= 0 || c.MallocFrac >= 1 {
		c.MallocFrac = 0.55
	}
	if c.GapMean < 0 {
		c.GapMean = 0
	}
	if c.BytesPerBeat <= 0 {
		c.BytesPerBeat = 4
	}
	if c.TouchBeatsCap <= 0 {
		c.TouchBeatsCap = 16
	}
	if c.HeapSize == 0 {
		c.HeapSize = 1 << 22
	}
	if c.PortReqDepth <= 0 {
		c.PortReqDepth = 4
	}
	if c.PortRespDepth <= 0 {
		c.PortRespDepth = 8
	}
	return nil
}

// Steps of the two-transaction malloc/free sequences.
const (
	hsIdle       uint8 = iota // between ops (gap countdown)
	hsMetaIssued              // step 1 in flight: bin read (malloc) / header read (free)
	hsBodyReady               // step 1 done, step 2 (write) not yet issued
	hsBodyIssued              // step 2 in flight
)

// Allocator is the software heap-allocator traffic source (after Villa et
// al.'s dynamic-memory co-simulation): each malloc is a free-list bin read
// followed by a header+payload-touch write, each free is a header read
// followed by a free-list link write, all hitting the memory path like the
// real allocator running on the DSP would. Addresses are deterministic: a
// bump cursor (64-byte aligned, wrapping) allocates block addresses and a
// preallocated live table tracks blocks to free.
type Allocator struct {
	iptg.Issuer
	cfg AllocConfig
	rng *sim.Rand

	opsDone  int64
	gapLeft  int64
	step     uint8
	opFree   bool   // current op is a free
	opSize   int    // current op's block size
	opAddr   uint64 // current op's block address
	cursor   uint64 // bump offset into the arena, past the bin table
	liveAddr []uint64
	liveSize []int
	live     int

	mallocs      int64
	frees        int64
	allocedBytes int64
}

// binTableBytes reserves the head of the arena for the size-class bins.
const binTableBytes = 4096

// NewAllocator builds the heap-allocator traffic source.
func NewAllocator(cfg AllocConfig, clk *sim.Clock, ids *bus.IDSource, origin int) (*Allocator, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	h := &Allocator{
		cfg:      cfg,
		rng:      sim.NewRand(cfg.Seed ^ 0x4a11),
		liveAddr: make([]uint64, cfg.LiveCap),
		liveSize: make([]int, cfg.LiveCap),
	}
	h.Init(bus.NewInitiatorPort(cfg.Name, cfg.PortReqDepth, cfg.PortRespDepth), clk, ids, origin,
		[]string{"heap"}, h.complete)
	return h, nil
}

// Done reports whether every heap operation has completed.
func (h *Allocator) Done() bool { return h.opsDone >= int64(h.cfg.Ops) }

// binAddr maps a size class to its free-list bin slot.
func (h *Allocator) binAddr(size int) uint64 {
	return h.cfg.HeapBase + uint64(size/64*8)%binTableBytes
}

// bumpAlloc carves the next 64-byte-aligned block from the arena cursor,
// wrapping past the end (the model is timing-accurate; overlap is fine).
func (h *Allocator) bumpAlloc(size int) uint64 {
	aligned := uint64((size + 63) &^ 63)
	body := h.cfg.HeapSize - binTableBytes
	if h.cursor+aligned > body {
		h.cursor = 0
	}
	addr := h.cfg.HeapBase + binTableBytes + h.cursor
	h.cursor += aligned
	return addr
}

// Eval collects the in-flight response and advances the op state machine,
// issuing at most one transaction per cycle.
func (h *Allocator) Eval() {
	h.Collect()
	if h.Done() {
		return
	}
	if h.gapLeft > 0 {
		h.gapLeft--
		return
	}
	h.issue()
}

// Update commits the port FIFOs and, with no response to collect, sleeps
// through the gap between ops, while a transaction is in flight or the full
// request FIFO holds the next one back, and once every op is done.
func (h *Allocator) Update() {
	port := h.Port()
	port.Update()
	switch {
	case port.Resp.Len() != 0:
		// collects at the next edge
	case h.Done():
		h.Activity().Sleep()
	case h.gapLeft > 0:
		h.Activity().SleepUntil(h.Clock().Cycles() + h.gapLeft + 1)
	case h.step == hsMetaIssued || h.step == hsBodyIssued || !port.Req.CanPush():
		h.Activity().Sleep()
	}
}

// CreditIdle books n skipped idle edges: the gap countdown, which stops once
// every op is done.
func (h *Allocator) CreditIdle(n int64) {
	if !h.Done() {
		h.gapLeft -= min(h.gapLeft, n)
	}
}

// complete advances the op when its in-flight transaction completes: the
// metadata read unblocks the dependent write, which closes the op.
func (h *Allocator) complete(int) {
	switch h.step {
	case hsMetaIssued:
		h.step = hsBodyReady
	case hsBodyIssued:
		h.finishOp()
	}
}

// startOp picks the next operation: malloc when nothing is live, free when
// the live table is full, otherwise a seeded biased coin.
func (h *Allocator) startOp() {
	switch {
	case h.live == 0:
		h.opFree = false
	case h.live == h.cfg.LiveCap:
		h.opFree = true
	default:
		h.opFree = !h.rng.Bool(h.cfg.MallocFrac)
	}
	if h.opFree {
		v := h.rng.Intn(h.live)
		h.opAddr = h.liveAddr[v]
		h.opSize = h.liveSize[v]
		// Swap-remove the victim.
		h.live--
		h.liveAddr[v] = h.liveAddr[h.live]
		h.liveSize[v] = h.liveSize[h.live]
	} else {
		h.opSize = h.rng.Range(h.cfg.MinBytes, h.cfg.MaxBytes)
		h.opAddr = h.bumpAlloc(h.opSize)
	}
}

// finishOp closes the current op and books the idle gap before the next.
func (h *Allocator) finishOp() {
	if h.opFree {
		h.frees++
	} else {
		h.mallocs++
		h.allocedBytes += int64(h.opSize)
		h.liveAddr[h.live] = h.opAddr
		h.liveSize[h.live] = h.opSize
		h.live++
	}
	h.opsDone++
	h.step = hsIdle
	h.gapLeft = int64(h.rng.Geometric(h.cfg.GapMean))
}

// issue advances the current op: metadata read first (free-list bin for
// malloc, block header for free), then the dependent write (header +
// payload touch for malloc, free-list link for free).
func (h *Allocator) issue() {
	if !h.Port().Req.CanPush() {
		return
	}
	switch h.step {
	case hsIdle:
		h.startOp()
		if h.opFree {
			h.push(bus.OpRead, h.opAddr, 1) // read the block header
		} else {
			h.push(bus.OpRead, h.binAddr(h.opSize), 1) // walk the bin free list
		}
		h.step = hsMetaIssued
	case hsBodyReady:
		if h.opFree {
			h.push(bus.OpWrite, h.binAddr(h.opSize), 1) // link into the bin
		} else {
			beats := ceilDiv(h.opSize, h.cfg.BytesPerBeat)
			if beats > h.cfg.TouchBeatsCap {
				beats = h.cfg.TouchBeatsCap
			}
			if beats < 1 {
				beats = 1
			}
			h.push(bus.OpWrite, h.opAddr, beats) // header + first-touch
		}
		h.step = hsBodyIssued
	}
}

func (h *Allocator) push(op bus.Op, addr uint64, beats int) {
	h.Issue(0, bus.Request{
		Op:           op,
		Addr:         addr,
		Beats:        beats,
		BytesPerBeat: h.cfg.BytesPerBeat,
		Prio:         h.cfg.Prio,
		MsgEnd:       true,
	}, true)
}

// Mallocs returns the completed allocation count.
func (h *Allocator) Mallocs() int64 { return h.mallocs }

// Frees returns the completed free count.
func (h *Allocator) Frees() int64 { return h.frees }

// Stats reports the allocator as a single-agent IP row.
func (h *Allocator) Stats() []iptg.AgentStats {
	out := h.Issuer.Stats()
	out[0].CurrentPhase = int(h.opsDone)
	return out
}

// RegisterMetrics registers the allocator's telemetry: the shared
// "ip.<name>.*" initiator surface plus allocator-specific instruments under
// "io.halloc.<name>.*".
func (h *Allocator) RegisterMetrics(m *metrics.Registry, clock string) {
	h.Issuer.RegisterMetrics(m, clock)
	hp := "io.halloc." + h.cfg.Name + "."
	m.CounterFunc(hp+"mallocs", func() int64 { return h.mallocs })
	m.CounterFunc(hp+"frees", func() int64 { return h.frees })
	m.CounterFunc(hp+"alloced_bytes", func() int64 { return h.allocedBytes })
	m.GaugeFunc(hp+"live_blocks", clock, func() int64 { return int64(h.live) })
}
