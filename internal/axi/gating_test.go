package axi

import (
	"fmt"
	"reflect"
	"testing"

	"mpsocsim/internal/testutil"
)

// TestInterconnectBackpressureLockstep runs a gated interconnect beside a
// full-evaluation twin against one and three slow targets, comparing
// statistics and every port FIFO's statistics after every cycle (DESIGN.md
// §20). It covers what no platform spec reaches: several targets, in-order
// delivery, register stages, and one- and eight-deep outstanding windows.
// An occupied register stage keeps the interconnect awake, so only the
// configurations without stages must sleep.
func TestInterconnectBackpressureLockstep(t *testing.T) {
	var wStalls int64
	for _, nt := range []int{1, 3} {
		for _, inOrder := range []bool{false, true} {
			for _, stages := range []int{0, 2} {
				for _, outst := range []int{1, 8} {
					cfg := Config{MaxOutstanding: outst, BytesPerBeat: 8, InOrder: inOrder, RegisterStages: stages}
					name := fmt.Sprintf("targets=%d/inorder=%v/stages=%d/outstanding=%d", nt, inOrder, stages, outst)
					t.Run(name, func(t *testing.T) {
						rig := func(full bool) (*testutil.Backpressure, *Interconnect) {
							x := New("axi", cfg, testutil.Regions(nt))
							return testutil.NewBackpressure(x, nt, true, full), x
						}
						g, gx := rig(false)
						f, fx := rig(true)
						state := func(r *testutil.Backpressure, x *Interconnect) func() string {
							return func() string { return fmt.Sprintf("%+v", x.Stats()) + r.PortState() }
						}
						skipped := testutil.Lockstep(t, 4000, g, f, state(g, gx), state(f, fx))
						s := gx.Stats()
						if !reflect.DeepEqual(s, fx.Stats()) {
							t.Fatal("final statistics differ")
						}
						wStalls += s.WStalls
						t.Logf("interconnect slept through %d of 4000 cycles: %d forwarded, %d W stalls", skipped, s.Forwarded, s.WStalls)
						if stages == 0 && skipped == 0 {
							t.Fatal("the gated interconnect never slept")
						}
					})
				}
			}
		}
	}
	if wStalls == 0 {
		t.Fatal("no configuration stalled a completed write on a full slave FIFO")
	}
}
