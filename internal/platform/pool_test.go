package platform

import (
	"testing"

	"mpsocsim/internal/replay"
	"mpsocsim/internal/tracecap"
)

// TestRequestPoolExactlyOnce holds the request pool's ownership rule on
// every protocol × topology × memory combination, driven by generated
// traffic and by a timed and an elastic replay of its own capture: once the
// run drains, every request the pool minted is back in its free list. The
// DSP is off and no I/O is attached, because both legitimately leave
// requests in flight at drain (DSP refills, bridge clones of posted I/O
// writes) — the run completes when the IP traffic does.
func TestRequestPoolExactlyOnce(t *testing.T) {
	for _, proto := range []Protocol{STBus, AHB, AXI} {
		for _, topo := range []Topology{Distributed, Collapsed} {
			for _, mem := range []MemoryKind{OnChip, LMIDDR} {
				spec := quick(proto, topo, mem)
				spec.WithDSP = false
				var tr *tracecap.Trace
				t.Run(spec.Name()+"/generated", func(t *testing.T) {
					p := MustBuild(spec)
					c := tracecap.NewCapture(spec.Name(), 0)
					p.AttachCapture(c)
					checkPoolDrained(t, p)
					tr = c.Trace()
				})
				for _, mode := range []replay.Mode{replay.Timed, replay.Elastic} {
					t.Run(spec.Name()+"/"+mode.String(), func(t *testing.T) {
						if tr == nil {
							t.Fatal("no capture: the generated run failed")
						}
						s := spec
						s.Replay, s.ReplayMode = tr, mode
						checkPoolDrained(t, MustBuild(s))
					})
				}
			}
		}
	}
}

// TestRequestPoolExactlyOnceWithDSPAndIO extends the ownership rule to the
// DSP core and the I/O subsystem, with posted DMA writes: with a DSP program
// short enough to halt, once the IP traffic drains, the core halts and the
// fabrics settle, every minted request is back in the free list. On AHB
// this covers the DMA engine's untracked write acks and the bridges'
// recycling of the acked copies of posted writes.
func TestRequestPoolExactlyOnceWithDSPAndIO(t *testing.T) {
	for _, proto := range []Protocol{STBus, AHB, AXI} {
		for _, topo := range []Topology{Distributed, Collapsed} {
			for _, mem := range []MemoryKind{OnChip, LMIDDR} {
				spec := quickIO(proto, topo, mem)
				spec.DSPIterations = 1
				spec.IO.DMAPostedWrites = true
				t.Run(spec.Name(), func(t *testing.T) {
					p := MustBuild(spec)
					if r := p.Run(5e12); !r.Done {
						t.Fatalf("did not drain (issued=%d completed=%d)", r.Issued, r.Completed)
					}
					if !p.Kernel.RunWhile(func() bool { return !p.core.Halted() }, p.Kernel.Now()+1e11) {
						t.Fatal("DSP did not halt")
					}
					p.Kernel.RunCycles(p.CentralClk, 20_000)
					checkPoolFull(t, p)
				})
			}
		}
	}
}

// checkPoolDrained runs p to the end, then checks its pool.
func checkPoolDrained(t *testing.T, p *Platform) {
	t.Helper()
	if r := p.Run(5e12); !r.Done {
		t.Fatalf("%s did not drain (issued=%d completed=%d)", p.Spec.Name(), r.Issued, r.Completed)
	}
	checkPoolFull(t, p)
}

// checkPoolFull fails unless every request p's pool minted is back in its
// free list.
func checkPoolFull(t *testing.T, p *Platform) {
	t.Helper()
	_, minted := p.pool.Recycled()
	if free := p.pool.Free(); int64(free) != minted {
		t.Fatalf("%s: pool minted %d requests but holds %d", p.Spec.Name(), minted, free)
	}
}
