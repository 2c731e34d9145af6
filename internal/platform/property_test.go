package platform

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomSpec draws one platform configuration from the property-test space:
// every protocol, topology and memory subsystem, with randomized workload
// scale, buffering, bridge and DSP parameters.
func randomSpec(rng *rand.Rand) Spec {
	s := DefaultSpec()
	s.Protocol = []Protocol{STBus, AHB, AXI}[rng.Intn(3)]
	s.Topology = []Topology{Distributed, Collapsed}[rng.Intn(2)]
	s.Memory = []MemoryKind{OnChip, LMIDDR}[rng.Intn(2)]
	s.WorkloadScale = 0.05 + 0.15*rng.Float64()
	s.Seed = rng.Uint64()%1000 + 1
	s.WithDSP = rng.Intn(2) == 0
	s.DSPIterations = 50
	s.OnChipWaitStates = rng.Intn(8)
	s.SplitLMIBridge = rng.Intn(2) == 0
	s.TwoPhase = rng.Intn(4) == 0
	s.MaxOutstanding = []int{1, 2, 4, 8}[rng.Intn(4)]
	s.BridgeLatency = 1 + rng.Intn(3)
	if rng.Intn(2) == 0 {
		s.IO.Enable = true
		s.IO.DMAPostedWrites = rng.Intn(2) == 0
	}
	return s
}

// specShrinkDims are the spec reductions the property-test shrinkers try,
// one dimension at a time; each reports whether it changed the spec.
var specShrinkDims = []func(*Spec) bool{
	func(s *Spec) bool { changed := s.IO.Enable; s.IO = IOSpec{}; return changed },
	func(s *Spec) bool { changed := s.TwoPhase; s.TwoPhase = false; return changed },
	func(s *Spec) bool { changed := s.WithDSP; s.WithDSP = false; return changed },
	func(s *Spec) bool { changed := s.SplitLMIBridge; s.SplitLMIBridge = false; return changed },
	func(s *Spec) bool { changed := s.OnChipWaitStates != 1; s.OnChipWaitStates = 1; return changed },
	func(s *Spec) bool { changed := s.BridgeLatency > 1; s.BridgeLatency = 1; return changed },
	func(s *Spec) bool { changed := s.MaxOutstanding != 8; s.MaxOutstanding = 8; return changed },
	func(s *Spec) bool { changed := s.Memory != OnChip; s.Memory = OnChip; return changed },
	func(s *Spec) bool { changed := s.Protocol != STBus; s.Protocol = STBus; return changed },
	func(s *Spec) bool { changed := s.Seed != 1; s.Seed = 1; return changed },
	func(s *Spec) bool {
		changed := s.WorkloadScale > 0.051
		s.WorkloadScale = s.WorkloadScale / 2
		if s.WorkloadScale < 0.05 {
			s.WorkloadScale = 0.05
		}
		return changed
	},
}

// shrinkWhile applies specShrinkDims to spec, keeping each reduction under
// which fails still holds, until a pass reduces nothing.
func shrinkWhile(spec Spec, fails func(Spec) bool) Spec {
	for pass := 0; pass < 4; pass++ {
		reduced := false
		for _, dim := range specShrinkDims {
			cand := spec
			if !dim(&cand) {
				continue
			}
			if fails(cand) {
				spec = cand
				reduced = true
			}
		}
		if !reduced {
			break
		}
	}
	return spec
}

// specSummary renders the property-test-relevant spec dimensions compactly.
func specSummary(s Spec) string {
	return fmt.Sprintf("%s scale=%.3f seed=%d dsp=%v waits=%d split=%v twophase=%v outstanding=%d bridgelat=%d",
		s.Name(), s.WorkloadScale, s.Seed, s.WithDSP, s.OnChipWaitStates, s.SplitLMIBridge, s.TwoPhase, s.MaxOutstanding, s.BridgeLatency)
}

// invariantViolation builds spec with attribution on, runs it to completion
// and describes the first broken conservation invariant ("" when all hold).
func invariantViolation(spec Spec) string {
	p, err := Build(spec)
	if err != nil {
		return fmt.Sprintf("Build: %v", err)
	}
	p.EnableAttribution(0)
	r := p.Run(2e12)
	if !r.Done || r.Stalled {
		return fmt.Sprintf("run did not drain (done=%v stalled=%v)", r.Done, r.Stalled)
	}
	if r.Issued != r.Completed {
		return fmt.Sprintf("issued %d != completed %d after drain", r.Issued, r.Completed)
	}
	for _, d := range r.Deadlines {
		if d.Met+d.Missed != d.Serviced || d.Serviced != d.Raised {
			return fmt.Sprintf("%s: met %d + missed %d, serviced %d, raised %d",
				d.Device, d.Met, d.Missed, d.Serviced, d.Raised)
		}
	}
	if r.Attribution == nil {
		return "result carries no attribution snapshot"
	}
	for _, is := range r.Attribution.Initiators {
		var sum int64
		for _, ph := range is.Phases {
			sum += ph.TotalPS
		}
		if sum != is.TotalPS {
			return fmt.Sprintf("%s: phase totals sum to %d ps, end-to-end total is %d ps", is.Initiator, sum, is.TotalPS)
		}
	}
	return ""
}

// TestRandomSpecInvariants checks the model's conservation invariants over
// seeded random platform specifications: every spec builds and drains with
// every issued transaction completed, every deadline-tracked device accounts
// for each event exactly once, and each initiator's attribution phases
// telescope to its end-to-end total. Failures are shrunk to a minimal
// reproducing spec before reporting.
func TestRandomSpecInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED_0006))
	n := 10
	if testing.Short() {
		n = 3
	}
	for i := 0; i < n; i++ {
		spec := randomSpec(rng)
		if v := invariantViolation(spec); v != "" {
			min := shrinkWhile(spec, func(s Spec) bool { return invariantViolation(s) != "" })
			t.Fatalf("case %d: %s\nspec: %s\nminimal failing spec: %s", i, v, specSummary(spec), specSummary(min))
		}
	}
}
