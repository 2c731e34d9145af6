package dspcore

import (
	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/snapshot"
)

// encodeCacheState serializes a cache's full array state: every line's
// tag/valid/dirty/age plus the LRU tick and counters. Lines dominate the
// snapshot size for DSP configs, so invalid lines encode as a single zero.
func encodeCacheState(e *snapshot.Encoder, c *cache) {
	e.Tag('$')
	e.U(uint64(len(c.sets)))
	e.U(uint64(c.cfg.Ways))
	for _, set := range c.sets {
		for i := range set {
			l := &set[i]
			if !l.valid {
				e.U(0)
				continue
			}
			e.U(1)
			e.U(l.tag)
			e.Bool(l.dirty)
			e.U(l.age)
		}
	}
	e.U(c.tick)
	e.I(c.hits)
	e.I(c.misses)
	e.I(c.writebacks)
}

func decodeCacheState(d *snapshot.Decoder, c *cache) {
	d.Tag('$')
	ns := d.N(1 << 24)
	nw := d.N(1 << 10)
	if d.Err() != nil {
		return
	}
	if ns != len(c.sets) || nw != c.cfg.Ways {
		d.Corrupt("cache geometry %dx%d does not match platform's %dx%d", ns, nw, len(c.sets), c.cfg.Ways)
		return
	}
	for _, set := range c.sets {
		for i := range set {
			l := &set[i]
			switch d.U() {
			case 0:
				*l = line{}
			case 1:
				l.valid = true
				l.tag = d.U()
				l.dirty = d.Bool()
				l.age = d.U()
			default:
				d.Corrupt("cache line marker out of range")
				return
			}
		}
		if d.Err() != nil {
			return
		}
	}
	c.tick = d.U()
	c.hits = d.I()
	c.misses = d.I()
	c.writebacks = d.I()
}

// EncodeState serializes the core's mutable state (DESIGN.md §16): the owned
// port, architectural registers, both cache arrays, the pipeline micro-state
// and the counters. The program is spec-derived.
func (c *Core) EncodeState(e *snapshot.Encoder) {
	e.Tag('V')
	bus.EncodeInitiatorPortState(e, c.port)
	for i := range c.regs {
		e.I(c.regs[i])
	}
	e.I(c.pc)
	e.Bool(c.halted)
	encodeCacheState(e, c.icache)
	encodeCacheState(e, c.dcache)
	e.Bool(c.fetchDone)
	e.U(uint64(len(c.memOps)))
	for _, op := range c.memOps {
		e.U(uint64(op.instr.Kind))
		e.I(int64(op.instr.Dst))
		e.I(int64(op.instr.Src1))
		e.I(int64(op.instr.Src2))
		e.I(op.instr.Imm)
		e.U(op.addr)
	}
	e.U(c.refillID)
	e.Bool(c.refillWait)
	e.Bool(c.opAccessed)
	e.Bool(c.needWB)
	e.U(c.wbAddr)
	e.Bool(c.needRefill)
	e.I(c.cycles)
	e.I(c.stallCycles)
	e.I(c.bundles)
	e.I(c.instrs)
	e.I(c.loads)
	e.I(c.stores)
	e.I(c.refills)
	e.I(c.writebacks)
}

// DecodeState restores a core serialized by EncodeState.
func (c *Core) DecodeState(d *snapshot.Decoder, col *attr.Collector) {
	d.Tag('V')
	bus.DecodeInitiatorPortState(d, c.port, col)
	for i := range c.regs {
		c.regs[i] = d.I()
	}
	c.pc = int64(d.Int(0, len(c.prog.Bundles), "dspcore %q pc", c.cfg.Name))
	c.halted = d.Bool()
	decodeCacheState(d, c.icache)
	decodeCacheState(d, c.dcache)
	c.fetchDone = d.Bool()
	nm := d.N(1 << 10)
	c.memOps = c.memOps[:0]
	for i := 0; i < nm; i++ {
		var op pendingOp
		op.instr.Kind = OpKind(d.U())
		op.instr.Dst = uint8(d.Int(0, NumRegs-1, "dspcore %q memory op %d Dst", c.cfg.Name, i))
		op.instr.Src1 = uint8(d.Int(0, NumRegs-1, "dspcore %q memory op %d Src1", c.cfg.Name, i))
		op.instr.Src2 = uint8(d.Int(0, NumRegs-1, "dspcore %q memory op %d Src2", c.cfg.Name, i))
		op.instr.Imm = d.I()
		op.addr = d.U()
		if d.Err() != nil {
			return
		}
		c.memOps = append(c.memOps, op)
	}
	c.refillID = d.U()
	c.refillWait = d.Bool()
	c.opAccessed = d.Bool()
	c.needWB = d.Bool()
	c.wbAddr = d.U()
	c.needRefill = d.Bool()
	c.cycles = d.I()
	c.stallCycles = d.I()
	c.bundles = d.I()
	c.instrs = d.I()
	c.loads = d.I()
	c.stores = d.I()
	c.refills = d.I()
	c.writebacks = d.I()
}
