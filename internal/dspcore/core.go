package dspcore

import (
	"fmt"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/sim"
)

// Config parameterizes a core instance.
type Config struct {
	Name string
	// ICache / DCache geometries. The ST220-class defaults are 32 KiB
	// direct-mapped I-cache and 32 KiB 4-way D-cache with 32-byte lines.
	ICache CacheConfig
	DCache CacheConfig
	// BytesPerBeat is the core's bus width (4 for the 32-bit ST220).
	BytesPerBeat int
	// PortReqDepth/PortRespDepth size the bus interface.
	PortReqDepth  int
	PortRespDepth int
	// WriteThrough disables dirty-line write-back and sends every store
	// miss as an individual write burst instead.
	WriteThrough bool
	// Prio is the priority label attached to the core's bus requests.
	// Cache refills are latency-critical (the core blocks), so platforms
	// give the CPU a high label where the fabric supports priorities.
	Prio int
}

// DefaultConfig returns the ST220-like configuration.
func DefaultConfig(name string) Config {
	return Config{
		Name:          name,
		ICache:        CacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Ways: 1},
		DCache:        CacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Ways: 4},
		BytesPerBeat:  4,
		PortReqDepth:  2,
		PortRespDepth: 8,
		Prio:          7,
	}
}

// pendingOp is a memory operation waiting inside the current bundle.
type pendingOp struct {
	instr Instr
	addr  uint64
}

// Core is the VLIW ISS; a gated sim.Clocked initiator owning its bus port.
type Core struct {
	act    sim.Activity
	cfg    Config
	port   *bus.InitiatorPort
	clk    *sim.Clock
	ids    *bus.IDSource
	origin int

	prog   Program
	regs   [NumRegs]int64
	pc     int64
	halted bool

	icache *cache
	dcache *cache

	// pool recycles bus requests (nil outside platform builds): refills
	// return on their final beat; posted writes are reclaimed by the
	// component that consumes them.
	pool *bus.RequestPool

	// attrCol, when set, closes each refill's attribution record at
	// final-beat consumption (see UseAttribution).
	attrCol *attr.Collector

	// pipeline state
	fetchDone  bool        // current bundle's fetch completed
	memOps     []pendingOp // memory ops of the current bundle, in order
	refillID   uint64      // outstanding miss transaction, 0 when none
	refillWait bool
	// per-op micro-state: the cache is accessed exactly once per op; the
	// resulting write-back and refill are then issued over as many cycles
	// as bus backpressure requires.
	opAccessed bool
	needWB     bool
	wbAddr     uint64
	needRefill bool

	// statistics
	cycles      int64
	stallCycles int64
	bundles     int64
	instrs      int64
	loads       int64
	stores      int64
	refills     int64
	writebacks  int64
}

// New builds a core running the given program.
func New(cfg Config, prog Program, clk *sim.Clock, ids *bus.IDSource, origin int) (*Core, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if cfg.BytesPerBeat <= 0 {
		cfg.BytesPerBeat = 4
	}
	if cfg.PortReqDepth <= 0 {
		cfg.PortReqDepth = 2
	}
	if cfg.PortRespDepth <= 0 {
		cfg.PortRespDepth = 8
	}
	ic, err := newCache("instruction", cfg.ICache)
	if err != nil {
		return nil, err
	}
	dc, err := newCache("data", cfg.DCache)
	if err != nil {
		return nil, err
	}
	c := &Core{
		cfg:    cfg,
		port:   bus.NewInitiatorPort(cfg.Name, cfg.PortReqDepth, cfg.PortRespDepth),
		clk:    clk,
		ids:    ids,
		origin: origin,
		prog:   prog,
		icache: ic,
		dcache: dc,
	}
	c.port.OwnedBy(&c.act)
	return c, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config, prog Program, clk *sim.Clock, ids *bus.IDSource, origin int) *Core {
	c, err := New(cfg, prog, clk, ids, origin)
	if err != nil {
		panic(err)
	}
	return c
}

// UseRequestPool makes the core mint requests from (and return them to) the
// given pool. Call before simulation starts.
func (c *Core) UseRequestPool(p *bus.RequestPool) { c.pool = p }

// UseAttribution makes the core finish each refill's latency-attribution
// record when the final beat arrives (posted writes finish at the consuming
// memory instead). Call before simulation starts.
func (c *Core) UseAttribution(col *attr.Collector) { c.attrCol = col }

// Port returns the initiator port to attach to a fabric.
func (c *Core) Port() *bus.InitiatorPort { return c.port }

// Name returns the core instance name.
func (c *Core) Name() string { return c.cfg.Name }

// Halted reports whether the program has executed HALT.
func (c *Core) Halted() bool { return c.halted }

// Reg returns an architectural register (for tests).
func (c *Core) Reg(i int) int64 { return c.regs[i] }

// Eval advances the core one cycle. A halted core still collects response
// beats: the acks of its last writes return their requests to the pool.
func (c *Core) Eval() {
	c.collectRefill()
	if c.halted {
		return
	}
	c.cycles++
	if c.refillWait {
		c.stallCycles++
		return
	}
	if !c.fetchDone {
		c.fetch()
		if !c.fetchDone {
			c.stallCycles++
			return
		}
	}
	if len(c.memOps) > 0 {
		c.issueMemOps()
		if c.refillWait || len(c.memOps) > 0 {
			c.stallCycles++
			return
		}
	}
	c.retireBundle()
}

// Update commits the port FIFOs and sleeps after HALT, and through a stall
// with no response beat to collect: until the refill arrives, or until the
// full request FIFO gives up an entry for the head memory op.
func (c *Core) Update() {
	c.port.Update()
	if c.halted || (c.port.Resp.Len() == 0 && c.stalled()) {
		c.act.Sleep()
	}
}

// stalled reports whether the next Eval would only count a stalled cycle:
// a refill is outstanding, or the head memory op has already accessed the
// D-cache (or is a write-through store) and waits to issue into the full
// request FIFO.
func (c *Core) stalled() bool {
	if c.refillWait {
		return true
	}
	if len(c.memOps) == 0 || c.port.Req.CanPush() {
		return false
	}
	if !c.opAccessed {
		return c.cfg.WriteThrough && c.memOps[0].instr.Kind == OpStore
	}
	return c.needWB || c.needRefill
}

// Activity returns the core's sleep state.
func (c *Core) Activity() *sim.Activity { return &c.act }

// CreditIdle books n skipped edges: a halted core counts nothing, a core
// waiting on a refill counts a stalled cycle each.
func (c *Core) CreditIdle(n int64) {
	if c.halted {
		return
	}
	c.cycles += n
	c.stallCycles += n
}

// collectRefill consumes response beats; the refill completes on Last.
// Every other final beat acks one of the core's writes, which it posts and
// never tracks, turned into a non-posted write by a non-posting fabric
// (AHB). A final beat is the request's last reference either way, so both
// are recycled.
func (c *Core) collectRefill() {
	for c.port.Resp.CanPop() {
		beat := c.port.Resp.Pop()
		if !beat.Last {
			continue
		}
		if beat.Req.ID == c.refillID {
			c.refillWait = false
			c.refillID = 0
			if rec := beat.Req.Attr; rec != nil && c.attrCol != nil {
				c.attrCol.Finish(rec, c.clk.NowPS())
			}
		}
		c.pool.Put(beat.Req)
	}
}

// fetch looks the current bundle up in the I-cache; a miss issues a line
// refill and stalls.
func (c *Core) fetch() {
	if int(c.pc) >= len(c.prog.Bundles) {
		c.halted = true
		return
	}
	addr := c.prog.Base + uint64(c.pc)*8
	hit, _, _ := c.icache.access(addr, false)
	if !hit {
		if !c.issueRefill(c.icache.lineAddr(addr), c.iLineBeats()) {
			return // port full: retry next cycle
		}
		c.refills++
		return
	}
	c.fetchDone = true
	c.decode()
}

// decode collects the bundle's memory ops and executes its ALU/branch part.
// Register reads observe pre-bundle values (VLIW semantics).
func (c *Core) decode() {
	b := c.prog.Bundles[c.pc]
	pre := c.regs
	nextPC := c.pc + 1
	for _, in := range b {
		switch in.Kind {
		case OpALU:
			c.regs[in.Dst] = pre[in.Src1] + pre[in.Src2] + in.Imm
			c.instrs++
		case OpLoad:
			addr := uint64(pre[in.Src1] + in.Imm)
			c.memOps = append(c.memOps, pendingOp{instr: in, addr: addr})
			c.instrs++
			c.loads++
		case OpStore:
			addr := uint64(pre[in.Src1] + in.Imm)
			c.memOps = append(c.memOps, pendingOp{instr: in, addr: addr})
			c.instrs++
			c.stores++
		case OpBranch:
			if pre[in.Src1] != 0 {
				nextPC = in.Imm
			}
			c.instrs++
		case OpHalt:
			c.halted = true
			c.instrs++
		case OpNop:
		}
	}
	c.pc = nextPC
}

// issueMemOps processes the bundle's loads/stores in order. Each op
// accesses the D-cache exactly once; a resulting write-back and refill are
// issued across cycles as the bus port allows.
func (c *Core) issueMemOps() {
	op := c.memOps[0]
	if !c.opAccessed {
		write := op.instr.Kind == OpStore
		if c.cfg.WriteThrough && write {
			// write-through variant: every store is a posted write
			// on the bus, no D-cache allocation.
			if c.issueWrite(op.addr, 1, true) {
				c.popMemOp()
			}
			return
		}
		hit, wb, hasWB := c.dcache.access(op.addr, write)
		c.opAccessed = true
		c.needWB, c.wbAddr = hasWB, wb
		c.needRefill = !hit
		if op.instr.Kind == OpLoad {
			c.regs[op.instr.Dst] = pseudoValue(op.addr)
		}
	}
	if c.needWB {
		if !c.issueWrite(c.wbAddr, c.dLineBeats(), true) {
			return
		}
		c.writebacks++
		c.needWB = false
	}
	if c.needRefill {
		if !c.issueRefill(c.dcache.lineAddr(op.addr), c.dLineBeats()) {
			return
		}
		c.refills++
		c.needRefill = false
	}
	c.popMemOp()
	c.opAccessed = false
}

// popMemOp drops the completed head op, shifting in place so the bundle's
// op queue reuses its backing array instead of reallocating every bundle.
func (c *Core) popMemOp() {
	n := copy(c.memOps, c.memOps[1:])
	c.memOps[n] = pendingOp{}
	c.memOps = c.memOps[:n]
}

func (c *Core) dLineBeats() int {
	b := c.cfg.DCache.LineBytes / c.cfg.BytesPerBeat
	if b < 1 {
		b = 1
	}
	return b
}

func (c *Core) iLineBeats() int {
	b := c.cfg.ICache.LineBytes / c.cfg.BytesPerBeat
	if b < 1 {
		b = 1
	}
	return b
}

// pseudoValue derives a deterministic load result from the address so
// pointer-chase kernels walk a reproducible sequence.
func pseudoValue(addr uint64) int64 {
	x := addr * 0x9e3779b97f4a7c15
	return int64((x >> 17) & 0xffff8) // 8-byte aligned, bounded offset
}

// issueRefill sends a read burst for one cache line; returns false when the
// port is full this cycle.
func (c *Core) issueRefill(lineAddr uint64, beats int) bool {
	if !c.port.Req.CanPush() {
		return false
	}
	req := c.pool.Get()
	*req = bus.Request{
		ID:           c.ids.Next(),
		Origin:       c.origin,
		Op:           bus.OpRead,
		Addr:         lineAddr,
		Beats:        beats,
		BytesPerBeat: c.cfg.BytesPerBeat,
		Prio:         c.cfg.Prio,
		IssueCycle:   c.clk.Cycles(),
		IssuePS:      c.clk.NowPS(),
		MsgEnd:       true,
	}
	c.port.Req.Push(req)
	c.refillID = req.ID
	c.refillWait = true
	return true
}

// issueWrite sends a posted write burst (write-back or write-through).
func (c *Core) issueWrite(addr uint64, beats int, posted bool) bool {
	if !c.port.Req.CanPush() {
		return false
	}
	if beats < 1 {
		beats = 1
	}
	req := c.pool.Get()
	*req = bus.Request{
		ID:           c.ids.Next(),
		Origin:       c.origin,
		Op:           bus.OpWrite,
		Addr:         addr,
		Beats:        beats,
		BytesPerBeat: c.cfg.BytesPerBeat,
		Prio:         c.cfg.Prio,
		Posted:       posted,
		IssueCycle:   c.clk.Cycles(),
		IssuePS:      c.clk.NowPS(),
		MsgEnd:       true,
	}
	c.port.Req.Push(req)
	return true
}

// retireBundle finishes the current bundle and moves to the next.
func (c *Core) retireBundle() {
	c.bundles++
	c.fetchDone = false
}

// RegisterMetrics registers the core's telemetry under "dsp.<name>.*" on the
// given clock domain: pipeline counters (cycles, stalls, bundles, instrs),
// memory-op counters, raw I-/D-cache hit/miss/writeback counters (hit rates
// are re-derivable from these), and an outstanding-refill gauge. Func-backed:
// the per-cycle pipeline is untouched.
func (c *Core) RegisterMetrics(m *metrics.Registry, clock string) {
	p := "dsp." + c.cfg.Name + "."
	m.CounterFunc(p+"cycles", func() int64 { return c.cycles })
	m.CounterFunc(p+"stall_cycles", func() int64 { return c.stallCycles })
	m.CounterFunc(p+"bundles", func() int64 { return c.bundles })
	m.CounterFunc(p+"instrs", func() int64 { return c.instrs })
	m.CounterFunc(p+"loads", func() int64 { return c.loads })
	m.CounterFunc(p+"stores", func() int64 { return c.stores })
	m.CounterFunc(p+"refills", func() int64 { return c.refills })
	m.CounterFunc(p+"writebacks", func() int64 { return c.writebacks })
	m.CounterFunc(p+"icache_hits", func() int64 { return c.icache.hits })
	m.CounterFunc(p+"icache_misses", func() int64 { return c.icache.misses })
	m.CounterFunc(p+"dcache_hits", func() int64 { return c.dcache.hits })
	m.CounterFunc(p+"dcache_misses", func() int64 { return c.dcache.misses })
	m.GaugeFunc(p+"refill_outstanding", clock, func() int64 {
		if c.refillWait {
			return 1
		}
		return 0
	})
}

// Stats reports core activity.
func (c *Core) Stats() Stats {
	return Stats{
		Cycles:      c.cycles,
		StallCycles: c.stallCycles,
		Bundles:     c.bundles,
		Instrs:      c.instrs,
		Loads:       c.loads,
		Stores:      c.stores,
		Refills:     c.refills,
		Writebacks:  c.writebacks,
		IHitRate:    c.icache.hitRate(),
		DHitRate:    c.dcache.hitRate(),
	}
}

// Stats summarizes core execution.
type Stats struct {
	Cycles      int64
	StallCycles int64
	Bundles     int64
	Instrs      int64
	Loads       int64
	Stores      int64
	Refills     int64
	Writebacks  int64
	IHitRate    float64
	DHitRate    float64
}

// CPI returns cycles per (non-NOP) instruction.
func (s Stats) CPI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instrs)
}

// String summarizes the stats.
func (s Stats) String() string {
	return fmt.Sprintf("cycles=%d stalls=%d instrs=%d CPI=%.2f i$=%.2f d$=%.2f refills=%d",
		s.Cycles, s.StallCycles, s.Instrs, s.CPI(), s.IHitRate, s.DHitRate, s.Refills)
}
