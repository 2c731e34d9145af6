package dspcore

import (
	"testing"

	"mpsocsim/internal/ahb"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/mem"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/stbus"
)

// rig wires a core to a memory through an STBus node.
type rig struct {
	k    *sim.Kernel
	clk  *sim.Clock
	core *Core
	m    *mem.Memory
}

func newRig(t *testing.T, cfg Config, prog Program) *rig {
	t.Helper()
	k := sim.NewKernel()
	clk := k.NewClock("cpu", 400)
	core, err := New(cfg, prog, clk, &bus.IDSource{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	node := stbus.NewNode("n", stbus.Config{Type: stbus.Type3, BytesPerBeat: cfg.BytesPerBeat}, bus.Single(0))
	m := mem.New("mem", mem.Config{WaitStates: 1, ReqDepth: 2, RespDepth: 4})
	node.AttachInitiator(core.Port())
	node.AttachTarget(m.Port())
	clk.Register(core)
	clk.Register(node)
	clk.Register(m)
	return &rig{k: k, clk: clk, core: core, m: m}
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if !r.k.RunWhile(func() bool { return !r.core.Halted() }, 1e11) {
		t.Fatalf("core did not halt: %s", r.core.Stats())
	}
}

func TestStreamKernelRuns(t *testing.T) {
	prog := StreamKernel(0x1000, 0x200000, 100, 32)
	r := newRig(t, DefaultConfig("st220"), prog)
	r.run(t)
	s := r.core.Stats()
	if s.Loads != 100 || s.Stores != 100 {
		t.Fatalf("loads/stores = %d/%d, want 100/100", s.Loads, s.Stores)
	}
	if s.Refills == 0 {
		t.Fatal("a 32-byte-stride stream must miss the D-cache")
	}
	if s.CPI() <= 1.0 {
		t.Fatalf("CPI = %v; miss stalls must push CPI above 1", s.CPI())
	}
}

func TestRegisterSemantics(t *testing.T) {
	// r1 = 5; r2 = r1 + 3; within one bundle reads see pre-bundle values.
	a := newAsm(0x8000000)
	a.emit(alu(1, 0, 0, 5))
	a.emit(
		alu(2, 1, 0, 3), // r2 = 5 + 3
		alu(1, 1, 1, 0), // r1 = 5 + 5 (reads pre-bundle r1)
	)
	a.emit(halt())
	r := newRig(t, DefaultConfig("c"), a.prog)
	r.run(t)
	if got := r.core.Reg(2); got != 8 {
		t.Fatalf("r2 = %d, want 8", got)
	}
	if got := r.core.Reg(1); got != 10 {
		t.Fatalf("r1 = %d, want 10 (VLIW pre-bundle read semantics)", got)
	}
}

func TestBranchLoop(t *testing.T) {
	// count down from 5
	a := newAsm(0x8000000)
	a.emit(alu(1, 0, 0, 5))
	loop := a.emit(alu(1, 1, 0, -1))
	a.emit(br(1, int64(loop)))
	a.emit(halt())
	r := newRig(t, DefaultConfig("c"), a.prog)
	r.run(t)
	if got := r.core.Reg(1); got != 0 {
		t.Fatalf("r1 = %d, want 0", got)
	}
}

func TestCacheLocalityChangesCPI(t *testing.T) {
	// stride 4 (within line) vs stride 64 (every access a new line):
	// the small stride must enjoy a much better CPI.
	small := newRig(t, DefaultConfig("c"), StreamKernel(0x1000, 0x200000, 200, 4))
	small.run(t)
	large := newRig(t, DefaultConfig("c"), StreamKernel(0x1000, 0x200000, 200, 64))
	large.run(t)
	cpiSmall := small.core.Stats().CPI()
	cpiLarge := large.core.Stats().CPI()
	if cpiSmall >= cpiLarge {
		t.Fatalf("stride-4 CPI (%v) should beat stride-64 CPI (%v)", cpiSmall, cpiLarge)
	}
	if small.core.Stats().DHitRate <= large.core.Stats().DHitRate {
		t.Fatal("hit rates inverted")
	}
}

func TestWritebacksHappen(t *testing.T) {
	// Stores over a working set larger than the D-cache: dirty evictions
	// must produce write-back traffic.
	cfg := DefaultConfig("c")
	cfg.DCache = CacheConfig{SizeBytes: 1 << 10, LineBytes: 32, Ways: 2}
	// store-only stream over 8 KiB (8x the cache), twice around
	prog := StreamKernel(0x1000, 0x4000, 512, 32)
	r := newRig(t, cfg, prog)
	r.run(t)
	if r.core.Stats().Writebacks == 0 {
		t.Fatal("expected write-backs from dirty evictions")
	}
}

func TestWriteThroughVariant(t *testing.T) {
	cfg := DefaultConfig("c")
	cfg.WriteThrough = true
	prog := StreamKernel(0x1000, 0x200000, 100, 8)
	r := newRig(t, cfg, prog)
	r.run(t)
	s := r.core.Stats()
	if s.Writebacks != 0 {
		t.Fatal("write-through must not produce write-backs")
	}
	if s.Stores != 100 {
		t.Fatalf("stores = %d", s.Stores)
	}
}

// TestWriteAcksReturnToPool wires the core straight to an AHB layer, which
// turns every posted write into an acknowledged one: the core never tracks
// its writes, so the ack's final beat is the request's last reference and
// must go back to the pool along with every refill. The program ends with a
// load miss, whose refill the single memory serves after every earlier
// write, so no ack is still in flight at HALT.
func TestWriteAcksReturnToPool(t *testing.T) {
	cfg := DefaultConfig("c")
	cfg.WriteThrough = true
	prog := MustAssemble(`
.base 0x9000000
        alu r1, r0, r0, 100
        alu r3, r0, r0, 0x200000
        alu r2, r0, r0, 0x400000
loop:   st  r3, 0 | alu r3, r3, r0, 8 | alu r1, r1, r0, -1
        br  r1, loop
        ld  r4, r2, 0
        halt
`)
	k := sim.NewKernel()
	clk := k.NewClock("cpu", 400)
	core, err := New(cfg, prog, clk, &bus.IDSource{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var pool bus.RequestPool
	core.UseRequestPool(&pool)
	layer := ahb.New("ahb", ahb.Config{BytesPerBeat: cfg.BytesPerBeat}, bus.Single(0))
	m := mem.New("mem", mem.Config{WaitStates: 1, ReqDepth: 2, RespDepth: 4})
	m.UseRequestPool(&pool)
	layer.AttachInitiator(core.Port())
	layer.AttachTarget(m.Port())
	clk.Register(core)
	clk.Register(layer)
	clk.Register(m)
	if !k.RunWhile(func() bool { return !core.Halted() }, 1e11) {
		t.Fatalf("core did not halt: %s", core.Stats())
	}
	if core.Stats().Stores != 100 {
		t.Fatalf("stores = %d", core.Stats().Stores)
	}
	if _, minted := pool.Recycled(); int64(pool.Free()) != minted {
		t.Fatalf("pool minted %d requests but holds %d once settled", minted, pool.Free())
	}
}

func TestPointerChaseHighMissRate(t *testing.T) {
	prog := PointerChaseKernel(0x100000, 300, 1<<20)
	r := newRig(t, DefaultConfig("c"), prog)
	r.run(t)
	s := r.core.Stats()
	if s.DHitRate > 0.6 {
		t.Fatalf("pointer chase D-hit rate %v too high", s.DHitRate)
	}
}

func TestComputeKernelLowTraffic(t *testing.T) {
	heavy := newRig(t, DefaultConfig("c"), StreamKernel(0x1000, 0x200000, 200, 64))
	heavy.run(t)
	light := newRig(t, DefaultConfig("c"), ComputeKernel(0x1000, 200))
	light.run(t)
	if light.core.Stats().Refills >= heavy.core.Stats().Refills {
		t.Fatalf("compute kernel refills (%d) should be far below stream kernel (%d)",
			light.core.Stats().Refills, heavy.core.Stats().Refills)
	}
}

func TestICacheMissesOnColdStart(t *testing.T) {
	r := newRig(t, DefaultConfig("c"), ComputeKernel(0x1000, 10))
	r.run(t)
	s := r.core.Stats()
	if s.IHitRate >= 1.0 {
		t.Fatal("cold start must take at least one I-cache miss")
	}
	if s.IHitRate < 0.5 {
		t.Fatalf("tight loop should mostly hit the I-cache, rate=%v", s.IHitRate)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		r := newRig(t, DefaultConfig("c"), StreamKernel(0x1000, 0x200000, 100, 16))
		r.run(t)
		return r.core.Stats().Cycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic execution: %d vs %d cycles", a, b)
	}
}

func TestProgramValidation(t *testing.T) {
	bad := []Program{
		{},
		{Bundles: []Bundle{{Instr{Kind: OpALU, Dst: 40}}}},
		{Bundles: []Bundle{{Instr{Kind: OpBranch, Imm: 5}}}},
	}
	clk := sim.NewKernel().NewClock("c", 400)
	for i, p := range bad {
		if _, err := New(DefaultConfig("c"), p, clk, &bus.IDSource{}, 0); err == nil {
			t.Errorf("program %d should be rejected", i)
		}
	}
}

func TestCacheConfigValidation(t *testing.T) {
	clk := sim.NewKernel().NewClock("c", 400)
	prog := ComputeKernel(0, 1)
	bad := []CacheConfig{
		{SizeBytes: 0, LineBytes: 32, Ways: 1},
		{SizeBytes: 1000, LineBytes: 32, Ways: 1},    // not divisible
		{SizeBytes: 1 << 10, LineBytes: 24, Ways: 1}, // line not pow2
		{SizeBytes: 96 * 32, LineBytes: 32, Ways: 1}, // sets not pow2
	}
	for i, cc := range bad {
		cfg := DefaultConfig("c")
		cfg.DCache = cc
		if _, err := New(cfg, prog, clk, &bus.IDSource{}, 0); err == nil {
			t.Errorf("cache config %d should be rejected", i)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(DefaultConfig("c"), Program{}, sim.NewKernel().NewClock("c", 400), &bus.IDSource{}, 0)
}

func TestOpKindString(t *testing.T) {
	for _, k := range []OpKind{OpNop, OpALU, OpLoad, OpStore, OpBranch, OpHalt, OpKind(99)} {
		if k.String() == "" {
			t.Fatal("empty op name")
		}
	}
}

func TestStatsString(t *testing.T) {
	r := newRig(t, DefaultConfig("c"), ComputeKernel(0x1000, 5))
	r.run(t)
	if r.core.Stats().String() == "" {
		t.Fatal("empty stats string")
	}
	var zero Stats
	if zero.CPI() != 0 {
		t.Fatal("zero stats CPI")
	}
}
