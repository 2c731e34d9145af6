package ahb

import (
	"fmt"
	"reflect"
	"testing"

	"mpsocsim/internal/testutil"
)

// TestBusBackpressureLockstep runs a gated bus beside a full-evaluation twin
// against one and three slow targets, comparing statistics and every port
// FIFO's statistics after every cycle (DESIGN.md §20). The depth-1 target
// FIFOs and rarely drained initiator response FIFOs hold the bus in data
// phases waiting on a slave. In the undecodable case the address map lacks
// the last target, so heads that decode nowhere leave the idle bus stalled
// with requests queued.
func TestBusBackpressureLockstep(t *testing.T) {
	for _, c := range []struct {
		name        string
		nt, decoded int
	}{
		{"targets=1", 1, 1},
		{"targets=3", 3, 3},
		{"targets=3/undecodable", 3, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			rig := func(full bool) (*testutil.Backpressure, *Bus) {
				b := New("ahb", DefaultConfig(), testutil.Regions(c.decoded))
				return testutil.NewBackpressure(b, c.nt, true, full), b
			}
			g, gb := rig(false)
			f, fb := rig(true)
			state := func(r *testutil.Backpressure, b *Bus) func() string {
				return func() string { return fmt.Sprintf("%+v", b.Stats()) + r.PortState() }
			}
			skipped := testutil.Lockstep(t, 4000, g, f, state(g, gb), state(f, fb))
			s := gb.Stats()
			if !reflect.DeepEqual(s, fb.Stats()) {
				t.Fatal("final statistics differ")
			}
			t.Logf("bus slept through %d of 4000 cycles: %+v", skipped, s)
			if skipped == 0 {
				t.Fatal("the gated bus never slept")
			}
			if c.decoded < c.nt && s.StallCycles == 0 {
				t.Fatal("undecodable heads never stalled the idle bus")
			}
		})
	}
}
