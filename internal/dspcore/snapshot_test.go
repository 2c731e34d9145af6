package dspcore

import (
	"errors"
	"testing"

	"mpsocsim/internal/bus"
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
