package io

import (
	"bytes"
	"errors"
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/mem"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/snapshot"
	"mpsocsim/internal/stbus"
)

// initiator is the slice of the platform.Initiator surface the rig needs.
type initiator interface {
	sim.Clocked
	Port() *bus.InitiatorPort
	Done() bool
	Issued() int64
	Completed() int64
	Unfinished() int64
}

// rig wires one io initiator to a memory through an STBus node.
type rig struct {
	k   *sim.Kernel
	clk *sim.Clock
	in  initiator
	m   *mem.Memory
}

func newRig(t *testing.T, mk func(clk *sim.Clock, ids *bus.IDSource) (initiator, error)) *rig {
	t.Helper()
	k := sim.NewKernel()
	clk := k.NewClock("clk", 250)
	in, err := mk(clk, &bus.IDSource{})
	if err != nil {
		t.Fatal(err)
	}
	node := stbus.NewNode("n", stbus.DefaultConfig(), bus.Single(0))
	m := mem.New("mem", mem.Config{WaitStates: 1, ReqDepth: 2, RespDepth: 4})
	node.AttachInitiator(in.Port())
	node.AttachTarget(m.Port())
	clk.Register(in)
	clk.Register(node)
	clk.Register(m)
	return &rig{k: k, clk: clk, in: in, m: m}
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if !r.k.RunWhile(func() bool { return !r.in.Done() }, 1e10) {
		t.Fatalf("timeout: issued=%d completed=%d", r.in.Issued(), r.in.Completed())
	}
}

func dmaCfg() DMAConfig {
	return DMAConfig{
		Name:        "dma",
		Descriptors: 4,
		DescBase:    0x10000,
		SrcBase:     0x20000,
		DstBase:     0x40000,
		RegionSize:  1 << 16,
		MinBytes:    256,
		MaxBytes:    512,
		BurstBeats:  4,
		Outstanding: 3,
		Seed:        7,
	}
}

func TestDMAChainCompletes(t *testing.T) {
	r := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
		return NewDMA(dmaCfg(), clk, ids, 5)
	})
	r.run(t)
	en := r.in.(*Engine)
	if en.DescriptorsFetched() != 4 {
		t.Fatalf("descriptors fetched = %d, want 4", en.DescriptorsFetched())
	}
	if en.Issued() != en.Completed() {
		t.Fatalf("issued %d != completed %d", en.Issued(), en.Completed())
	}
	if en.Unfinished() != 0 {
		t.Fatalf("unfinished = %d after drain", en.Unfinished())
	}
	// Payload is drawn in [256,512] per descriptor, moved as whole beats.
	bb := int64(4 * 8)
	if mv := en.BytesMoved(); mv < 4*256 || mv > 4*(512+bb) {
		t.Fatalf("bytes moved = %d, outside descriptor payload bounds", mv)
	}
	// Each descriptor costs a fetch, N reads, N writes and a writeback.
	s := en.Stats()[0]
	if s.Reads+s.Writes != en.Issued() {
		t.Fatalf("reads+writes = %d, issued %d", s.Reads+s.Writes, en.Issued())
	}
	if s.MeanLatency <= 0 {
		t.Fatal("latency not recorded")
	}
}

func TestDMAPostedWritesCompleteAtIssue(t *testing.T) {
	cfg := dmaCfg()
	cfg.PostedWrites = true
	r := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
		return NewDMA(cfg, clk, ids, 5)
	})
	r.run(t)
	if r.in.Issued() != r.in.Completed() {
		t.Fatalf("issued %d != completed %d with posted writes", r.in.Issued(), r.in.Completed())
	}
	if r.in.(*Engine).DescriptorsFetched() != 4 {
		t.Fatal("chain did not complete")
	}
}

// The sharded-run coordinator needs Unfinished to never overestimate the
// transactions still coming: sample it through the run and check every
// sample against the completions that actually followed.
func TestDMAUnfinishedIsLowerBound(t *testing.T) {
	r := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
		return NewDMA(dmaCfg(), clk, ids, 5)
	})
	type sample struct{ unfinished, completed int64 }
	var samples []sample
	r.clk.Register(&sim.ClockedFunc{OnEval: func() {
		samples = append(samples, sample{r.in.Unfinished(), r.in.Completed()})
	}})
	r.run(t)
	final := r.in.Completed()
	for i, s := range samples {
		if s.unfinished > final-s.completed {
			t.Fatalf("sample %d: Unfinished()=%d overestimates remaining %d",
				i, s.unfinished, final-s.completed)
		}
	}
}

func TestDMAConfigValidation(t *testing.T) {
	clk := sim.NewKernel().NewClock("c", 100)
	if _, err := NewDMA(DMAConfig{Descriptors: 1}, clk, &bus.IDSource{}, 0); err == nil {
		t.Error("nameless DMA config should be rejected")
	}
	if _, err := NewDMA(DMAConfig{Name: "d"}, clk, &bus.IDSource{}, 0); err == nil {
		t.Error("zero-descriptor DMA config should be rejected")
	}
}

func irqCfg() IRQConfig {
	return IRQConfig{
		Name:           "irq",
		Events:         12,
		PeriodCycles:   60,
		JitterCycles:   10,
		DeadlineCycles: 10000,
		Bursts:         3,
		BurstBeats:     4,
		ReadFrac:       0.75,
		RegionBase:     0x80000,
		RegionSize:     1 << 16,
		Seed:           11,
	}
}

func TestIRQAllDeadlinesMetWhenLoose(t *testing.T) {
	r := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
		return NewIRQ(irqCfg(), clk, ids, 6)
	})
	r.run(t)
	ds := r.in.(*Device).DeadlineStats()
	if ds.Raised != 12 || ds.Serviced != 12 {
		t.Fatalf("raised/serviced = %d/%d, want 12/12", ds.Raised, ds.Serviced)
	}
	if ds.Met+ds.Missed != ds.Serviced {
		t.Fatalf("met %d + missed %d != serviced %d", ds.Met, ds.Missed, ds.Serviced)
	}
	if ds.Missed != 0 {
		t.Fatalf("missed = %d under a 10000-cycle deadline", ds.Missed)
	}
	if ds.MeanSvcCycles <= 0 || ds.MaxSvcCycles < ds.MinSvcCycles {
		t.Fatalf("service latency stats malformed: %+v", ds)
	}
	if r.in.Unfinished() != 0 {
		t.Fatalf("unfinished = %d after drain", r.in.Unfinished())
	}
}

func TestIRQAllDeadlinesMissedWhenTight(t *testing.T) {
	cfg := irqCfg()
	cfg.DeadlineCycles = 1 // a 3-transaction service can never finish in 1 cycle
	r := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
		return NewIRQ(cfg, clk, ids, 6)
	})
	r.run(t)
	ds := r.in.(*Device).DeadlineStats()
	if ds.Missed != 12 || ds.Met != 0 {
		t.Fatalf("missed/met = %d/%d, want 12/0", ds.Missed, ds.Met)
	}
}

// When events arrive faster than the service drain, the IRQ line backs up;
// pending depth must be tracked and every event still serviced in order.
func TestIRQEventBackpressure(t *testing.T) {
	cfg := irqCfg()
	cfg.PeriodCycles = 2
	cfg.JitterCycles = 0
	r := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
		return NewIRQ(cfg, clk, ids, 6)
	})
	r.run(t)
	ds := r.in.(*Device).DeadlineStats()
	if ds.PendingMax < 2 {
		t.Fatalf("pending max = %d, want backlog under a 2-cycle period", ds.PendingMax)
	}
	if ds.Serviced != 12 {
		t.Fatalf("serviced = %d, want 12", ds.Serviced)
	}
}

func TestIRQConfigValidation(t *testing.T) {
	clk := sim.NewKernel().NewClock("c", 100)
	if _, err := NewIRQ(IRQConfig{Events: 1}, clk, &bus.IDSource{}, 0); err == nil {
		t.Error("nameless IRQ config should be rejected")
	}
	if _, err := NewIRQ(IRQConfig{Name: "q"}, clk, &bus.IDSource{}, 0); err == nil {
		t.Error("zero-event IRQ config should be rejected")
	}
}

func allocCfg() AllocConfig {
	return AllocConfig{
		Name:     "heap",
		Ops:      40,
		MinBytes: 16,
		MaxBytes: 1024,
		HeapBase: 0x100000,
		HeapSize: 1 << 20,
		LiveCap:  8,
		GapMean:  2,
		Seed:     13,
	}
}

func TestAllocatorCompletes(t *testing.T) {
	r := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
		return NewAllocator(allocCfg(), clk, ids, 9)
	})
	r.run(t)
	h := r.in.(*Allocator)
	if h.Mallocs()+h.Frees() != 40 {
		t.Fatalf("mallocs %d + frees %d != 40", h.Mallocs(), h.Frees())
	}
	if h.Frees() > h.Mallocs() {
		t.Fatalf("freed %d blocks but only allocated %d", h.Frees(), h.Mallocs())
	}
	// Every op is exactly two tracked transactions.
	if h.Issued() != 80 || h.Completed() != 80 {
		t.Fatalf("issued/completed = %d/%d, want 80/80", h.Issued(), h.Completed())
	}
	if h.Unfinished() != 0 {
		t.Fatalf("unfinished = %d after drain", h.Unfinished())
	}
	if h.live > allocCfg().LiveCap {
		t.Fatalf("live blocks %d exceed cap", h.live)
	}
}

func TestAllocatorAddressesStayInArena(t *testing.T) {
	cfg := allocCfg()
	r := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
		return NewAllocator(cfg, clk, ids, 9)
	})
	lo, hi := cfg.HeapBase, cfg.HeapBase+cfg.HeapSize
	r.in.Port().Probe = probeFunc(func(req *bus.Request) {
		if req.Addr < lo || req.Addr >= hi {
			t.Errorf("heap transaction at %#x outside arena [%#x,%#x)", req.Addr, lo, hi)
		}
	})
	r.run(t)
}

// probeFunc adapts a request callback to bus.PortProbe.
type probeFunc func(*bus.Request)

func (f probeFunc) RequestIssued(r *bus.Request)                 { f(r) }
func (f probeFunc) RequestCompleted(r *bus.Request, cycle int64) {}

func TestAllocatorConfigValidation(t *testing.T) {
	clk := sim.NewKernel().NewClock("c", 100)
	if _, err := NewAllocator(AllocConfig{Ops: 1}, clk, &bus.IDSource{}, 0); err == nil {
		t.Error("nameless allocator config should be rejected")
	}
	if _, err := NewAllocator(AllocConfig{Name: "h"}, clk, &bus.IDSource{}, 0); err == nil {
		t.Error("zero-op allocator config should be rejected")
	}
}

// All three initiators must be cycle-deterministic for a fixed seed.
func TestDeterminismAcrossRuns(t *testing.T) {
	builders := map[string]func(clk *sim.Clock, ids *bus.IDSource) (initiator, error){
		"dma": func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
			return NewDMA(dmaCfg(), clk, ids, 5)
		},
		"irq": func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
			return NewIRQ(irqCfg(), clk, ids, 6)
		},
		"halloc": func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
			return NewAllocator(allocCfg(), clk, ids, 9)
		},
	}
	for name, mk := range builders {
		once := func() (int64, int64) {
			r := newRig(t, mk)
			r.run(t)
			return r.clk.Cycles(), r.in.Issued()
		}
		c1, i1 := once()
		c2, i2 := once()
		if c1 != c2 || i1 != i2 {
			t.Errorf("%s: same seed diverged: cycles %d/%d issued %d/%d", name, c1, c2, i1, i2)
		}
	}
}

// Snapshot codec fidelity: freeze each initiator mid-run (in-flight
// transactions in the port FIFOs, a descriptor chain half-moved, events
// pending), decode into a fresh same-config instance and re-encode — the
// streams must match byte for byte.
func TestSnapshotRoundTripMidFlight(t *testing.T) {
	t.Run("dma", func(t *testing.T) {
		a := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
			return NewDMA(dmaCfg(), clk, ids, 5)
		})
		a.k.RunCycles(a.clk, 40) // mid-chain: fetch done, moves in flight
		en := a.in.(*Engine)
		if en.inFlight == 0 && en.desc == 0 && !en.fetchIssued {
			t.Fatal("test did not reach an interesting state")
		}
		e := snapshot.NewEncoder()
		en.EncodeState(e)

		b := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
			return NewDMA(dmaCfg(), clk, ids, 5)
		})
		en2 := b.in.(*Engine)
		d, err := snapshot.NewDecoder(e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		en2.DecodeState(d, nil)
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		e2 := snapshot.NewEncoder()
		en2.EncodeState(e2)
		if !bytes.Equal(e.Bytes(), e2.Bytes()) {
			t.Fatal("re-encoded DMA state differs")
		}
		if en2.inFlight != en.inFlight || en2.desc != en.desc || en2.Unfinished() != en.Unfinished() {
			t.Fatal("decoded DMA state differs from original")
		}
	})

	t.Run("irq", func(t *testing.T) {
		cfg := irqCfg()
		cfg.PeriodCycles = 8 // force pending backlog at snapshot time
		cfg.JitterCycles = 0
		a := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
			return NewIRQ(cfg, clk, ids, 6)
		})
		a.k.RunCycles(a.clk, 60)
		dev := a.in.(*Device)
		if dev.raised == 0 {
			t.Fatal("no events raised before snapshot")
		}
		e := snapshot.NewEncoder()
		dev.EncodeState(e)

		b := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
			return NewIRQ(cfg, clk, ids, 6)
		})
		dev2 := b.in.(*Device)
		d, err := snapshot.NewDecoder(e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		dev2.DecodeState(d, nil)
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		e2 := snapshot.NewEncoder()
		dev2.EncodeState(e2)
		if !bytes.Equal(e.Bytes(), e2.Bytes()) {
			t.Fatal("re-encoded IRQ state differs")
		}
		if dev2.pending != dev.pending || dev2.raised != dev.raised {
			t.Fatal("decoded IRQ state differs from original")
		}
	})

	t.Run("halloc", func(t *testing.T) {
		a := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
			return NewAllocator(allocCfg(), clk, ids, 9)
		})
		a.k.RunCycles(a.clk, 80)
		h := a.in.(*Allocator)
		if h.opsDone == 0 {
			t.Fatal("no ops completed before snapshot")
		}
		e := snapshot.NewEncoder()
		h.EncodeState(e)

		b := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
			return NewAllocator(allocCfg(), clk, ids, 9)
		})
		h2 := b.in.(*Allocator)
		d, err := snapshot.NewDecoder(e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		h2.DecodeState(d, nil)
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		e2 := snapshot.NewEncoder()
		h2.EncodeState(e2)
		if !bytes.Equal(e.Bytes(), e2.Bytes()) {
			t.Fatal("re-encoded allocator state differs")
		}
		if h2.live != h.live || h2.opsDone != h.opsDone {
			t.Fatal("decoded allocator state differs from original")
		}
	})
}

// Corrupt streams must fail cleanly, never panic.
func TestSnapshotDecodeRejectsCorruptKinds(t *testing.T) {
	a := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
		return NewDMA(dmaCfg(), clk, ids, 5)
	})
	a.k.RunCycles(a.clk, 40)
	e := snapshot.NewEncoder()
	a.in.(*Engine).EncodeState(e)
	raw := e.Bytes()
	for i := len(snapshot.Magic) + 1; i < len(raw); i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x5a
		d, err := snapshot.NewDecoder(mut)
		if err != nil {
			continue
		}
		b := newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
			return NewDMA(dmaCfg(), clk, ids, 5)
		})
		// Must not panic; an error (or silent value change) is fine.
		b.in.(*Engine).DecodeState(d, nil)
	}
}

// TestDecodeStateRejectsOutOfRange restores an allocator whose malloc is in
// progress while every live slot is taken — finishing it would store the
// block past the live table — and requires DecodeState to reject the
// snapshot. A full table between ops is valid: the next op is a free.
func TestDecodeStateRejectsOutOfRange(t *testing.T) {
	build := func() *Allocator {
		return newRig(t, func(clk *sim.Clock, ids *bus.IDSource) (initiator, error) {
			return NewAllocator(allocCfg(), clk, ids, 9)
		}).in.(*Allocator)
	}
	decode := func(h *Allocator) error {
		e := snapshot.NewEncoder()
		h.EncodeState(e)
		d, err := snapshot.NewDecoder(e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		build().DecodeState(d, nil)
		return d.Finish()
	}
	h := build()
	h.live = len(h.liveAddr)
	if err := decode(h); err != nil {
		t.Fatalf("a full live table between ops does not round-trip: %v", err)
	}
	t.Run("malloc in progress with the live table full", func(t *testing.T) {
		h := build()
		h.live, h.step, h.opFree, h.opSize = len(h.liveAddr), hsBodyReady, false, 64
		if err := decode(h); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("decode returned %v, want %v", err, snapshot.ErrCorrupt)
		}
	})
}
