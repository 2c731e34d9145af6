package dspcore

import (
	"errors"
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/mem"
	"mpsocsim/internal/snapshot"
)

// TestDecodeStateRejectsOutOfRange corrupts each index the core acts on
// after a restore — the program counter and the registers of a pending
// memory op — and the one-refill-at-a-time rule of its issue side, and
// requires DecodeState to reject the snapshot instead of letting Run index
// with it or wait on two refills.
func TestDecodeStateRejectsOutOfRange(t *testing.T) {
	prog := StreamKernel(0x1000, 0x200000, 8, 32)
	build := func() *Core { return newRig(t, DefaultConfig("st220"), prog).core }
	pending := func(in Instr) func(c *Core) {
		return func(c *Core) {
			in.Kind = OpLoad
			c.memOps = append(c.memOps, pendingOp{instr: in, addr: 0x1000})
		}
	}
	refills := func(n int) func(c *Core) {
		return func(c *Core) {
			for i := 0; i < n; i++ {
				if !c.issue(bus.OpRead, 0x1000+uint64(i)*32, c.dLineBeats()) {
					t.Fatalf("refill %d does not fit the request FIFO", i)
				}
			}
			c.Port().Update() // a snapshot holds committed FIFOs only
		}
	}
	rows := []struct {
		name string
		set  func(c *Core)
	}{
		{"pc negative", func(c *Core) { c.pc = -3 }},
		{"pc past bundles", func(c *Core) { c.pc = int64(len(prog.Bundles)) + 1 }},
		{"memory op Dst past registers", pending(Instr{Dst: 200})},
		{"memory op Src1 past registers", pending(Instr{Src1: NumRegs})},
		{"memory op Src2 past registers", pending(Instr{Src2: 255})},
		{"two refills in flight", refills(2)},
	}
	decode := func(c *Core) error {
		e := snapshot.NewEncoder()
		c.EncodeState(e)
		d, err := snapshot.NewDecoder(e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		build().DecodeState(d, nil)
		return d.Finish()
	}
	c := build()
	c.pc = int64(len(prog.Bundles)) // past the last bundle: halts on fetch
	pending(Instr{Dst: NumRegs - 1, Src1: 3, Src2: 0})(c)
	refills(1)(c)
	if err := decode(c); err != nil {
		t.Fatalf("a core does not round-trip: %v", err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := build()
			row.set(c)
			if err := decode(c); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("decode returned %v, want %v", err, snapshot.ErrCorrupt)
			}
		})
	}
}

// TestRestoreWhileOpWaitsOnFullFifo checkpoints a core whose head memory op
// has already accessed the D-cache and waits for room in the full two-entry
// request FIFO, the one state in which opAccessed is true across an edge.
// Write-through stores to a slow memory fill the FIFO with posted writes;
// the load behind them then misses and cannot issue its refill. The kernel,
// node, memory and core go through one encoder into a fresh rig, and both
// rigs must halt with equal Stats: a restored core that lost the flag would
// access the D-cache a second time, hit the line the first access
// allocated, and never issue the refill.
func TestRestoreWhileOpWaitsOnFullFifo(t *testing.T) {
	cfg := DefaultConfig("c")
	cfg.WriteThrough = true
	prog := MustAssemble(`
.base 0x9000000
        alu r3, r0, r0, 0x200000
        alu r2, r0, r0, 0x400000
        st  r3, 0  | st r3, 8  | st r3, 16 | st r3, 24
        st  r3, 32 | st r3, 40 | st r3, 48 | ld r4, r2, 0
        halt
`)
	mcfg := mem.Config{WaitStates: 20, ReqDepth: 2, RespDepth: 4}
	src := newRigMem(t, cfg, prog, mcfg)
	for !(src.core.opAccessed && !src.core.Port().Req.CanPush()) {
		if src.core.Halted() || src.k.Now() > 1e9 {
			t.Fatalf("the load never waited on a full request FIFO after its D-cache access: %s", src.core.Stats())
		}
		src.k.Step()
	}
	e := snapshot.NewEncoder()
	src.k.EncodeState(e)
	src.node.EncodeState(e)
	src.m.EncodeState(e)
	src.core.EncodeState(e)
	d, err := snapshot.NewDecoder(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	dst := newRigMem(t, cfg, prog, mcfg)
	dst.k.DecodeState(d)
	dst.node.DecodeState(d, nil)
	dst.m.DecodeState(d, nil)
	dst.core.DecodeState(d, nil)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	src.run(t)
	dst.run(t)
	if got, want := dst.core.Stats(), src.core.Stats(); got != want {
		t.Fatalf("restored core halts with %s, the uninterrupted one with %s", got, want)
	}
}
