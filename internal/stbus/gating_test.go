package stbus

import (
	"fmt"
	"reflect"
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/testutil"
)

// Node-level backpressure lockstep (DESIGN.md §20): a gated node sleeps
// through long grant stalls against a slow target, and must stay
// indistinguishable from a node evaluated at every edge.

// stallRig is one node with three sources and nt slow targets.
type stallRig struct {
	*testutil.Backpressure
	node *Node
}

func newStallRig(cfg Config, nt int, unequal, full bool) *stallRig {
	node := NewNode("n", cfg, testutil.Regions(nt))
	r := &stallRig{Backpressure: testutil.NewBackpressure(node, nt, node.Config().Type >= Type2, full), node: node}
	if unequal {
		for i, s := range r.Sources {
			s.Prio = i % 2
		}
	}
	return r
}

// state renders everything the lockstep compares: the node's statistics,
// every port FIFO's committed occupancy and head, and each target's next
// grant.
func (r *stallRig) state() string {
	grants := make([]int, len(r.Targets))
	for t := range r.Targets {
		grants[t] = r.node.grantee(t)
	}
	return fmt.Sprintf("%+v grants=%v", r.node.Stats(), grants) + r.PortState()
}

// TestNodeBackpressureLockstep runs a gated node beside a full-evaluation
// twin on every protocol type, with message arbitration on and off, one and
// three targets, and equal and unequal priorities, comparing statistics,
// FIFO occupancy and heads, and the next grant after every cycle.
func TestNodeBackpressureLockstep(t *testing.T) {
	for _, typ := range []Type{Type1, Type2, Type3} {
		for _, msg := range []bool{true, false} {
			for _, nt := range []int{1, 3} {
				for _, unequal := range []bool{false, true} {
					cfg := Config{Type: typ, MaxOutstanding: 4, MessageArbitration: msg, BytesPerBeat: 8}
					name := fmt.Sprintf("%v/msg=%v/targets=%d/unequal=%v", typ, msg, nt, unequal)
					t.Run(name, func(t *testing.T) {
						g := newStallRig(cfg, nt, unequal, false)
						f := newStallRig(cfg, nt, unequal, true)
						skipped := testutil.Lockstep(t, 4000, g.Backpressure, f.Backpressure, g.state, f.state)
						if !reflect.DeepEqual(g.node.Stats(), f.node.Stats()) {
							t.Fatal("final statistics differ")
						}
						if g.node.Stats().GrantStalls == 0 {
							t.Fatal("the rig never stalled a grant")
						}
						t.Logf("node slept through %d of 4000 cycles, %d grant stalls", skipped, g.node.Stats().GrantStalls)
						if skipped == 0 {
							t.Fatal("the gated node never slept")
						}
					})
				}
			}
		}
	}
}

// TestStallRRMatchesArbitration checks the closed-form round-robin advance
// against repeated stalled arbitrations, for one, two and three initiators
// sharing the top priority, every pointer start and stall counts up to a
// few rounds.
func TestStallRRMatchesArbitration(t *testing.T) {
	for _, prios := range [][]int{{0, 1, 0}, {1, 0, 1}, {0, 0, 0}} {
		r := newStallRig(Config{Type: Type3, MaxOutstanding: 4, BytesPerBeat: 8}, 1, false, true)
		for i, s := range r.Sources {
			s.Port.Req.Push(&bus.Request{ID: uint64(i + 1), Beats: 1, BytesPerBeat: 8, Prio: prios[i], MsgEnd: true})
			s.Port.Req.Update()
		}
		for rr := 0; rr < 3; rr++ {
			for k := int64(1); k <= 7; k++ {
				ch := &reqChannel{rr: rr, msgLock: -1}
				for j := int64(0); j < k; j++ {
					r.node.arbitrate(0, ch)
				}
				if got := r.node.stallRR(0, rr, k); got != ch.rr {
					t.Fatalf("prios %v rr=%d k=%d: closed form %d, arbitration %d", prios, rr, k, got, ch.rr)
				}
			}
		}
	}
}
