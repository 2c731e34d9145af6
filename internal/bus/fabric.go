package bus

import "mpsocsim/internal/sim"

// Fabric is the interface every interconnect model (STBus node, AHB bus,
// AXI interconnect) implements, so platforms and bridges compose with any
// of them. Attach methods must be called before the first cycle.
type Fabric interface {
	sim.Clocked
	// AttachInitiator connects an initiator port and returns the index
	// the fabric writes into Request.Src for response routing.
	AttachInitiator(p *InitiatorPort) int
	// AttachTarget connects a target port and returns its index in the
	// fabric's address map.
	AttachTarget(p *TargetPort) int
	// Name identifies the fabric instance in statistics.
	Name() string
}

// Wrap returns i mod n for 0 <= i < 2n: the fabrics advance and scan their
// round-robin pointers with it, a compare instead of an integer division
// on every arbitration step.
func Wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}
