package platform

import (
	"mpsocsim/internal/sim"
	"mpsocsim/internal/trace"
)

// AttachSampler registers a waveform-style sampler on the central clock,
// recording every periodCycles: the memory-subsystem input-queue occupancy
// (the LMI bus-interface FIFO for the LMI variant, the memory port queue
// otherwise), the total completed transactions, and each bridge's in-flight
// count. Call before Run; dump the sampler with trace.Sampler.WriteCSV.
func (p *Platform) AttachSampler(s *trace.Sampler, periodCycles int64) {
	// Snapshot refuses the platform from here on: the sampler's state lives
	// in the closure below.
	p.samplerAttached = true
	if periodCycles <= 0 {
		periodCycles = 100
	}
	p.CentralClk.Register(&sim.ClockedFunc{OnEval: func() {
		now := p.CentralClk.Cycles()
		if now%periodCycles != 0 {
			return
		}
		switch {
		case p.ctrl != nil:
			s.Sample(now, "lmi_fifo", int64(p.ctrl.Port().Req.Len()))
		case p.onchip != nil:
			s.Sample(now, "mem_fifo", int64(p.onchip.Port().Req.Len()))
		}
		var completed int64
		for _, g := range p.gens {
			completed += g.Completed()
		}
		s.Sample(now, "completed", completed)
		for name, br := range p.bridges {
			s.Sample(now, "out_"+name, int64(br.Outstanding()))
		}
	}})
}
