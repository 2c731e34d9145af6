package axi

import (
	"errors"
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/snapshot"
	"mpsocsim/internal/testutil"
)

// TestDecodeStateRejectsOutOfRange sets one restored round-robin pointer or
// in-flight request source outside the ports it indexes, or drops a
// register-stage request, and requires the decoder to reject the snapshot as
// corrupt instead of handing Run an interconnect that panics on its next
// edge.
func TestDecodeStateRejectsOutOfRange(t *testing.T) {
	const ni, nt = 3, 2
	build := func() *Interconnect {
		x := New("axi0", DefaultConfig(), testutil.Regions(nt))
		for i := 0; i < ni; i++ {
			x.AttachInitiator(bus.NewInitiatorPort("ini", 2, 2))
		}
		for i := 0; i < nt; i++ {
			x.AttachTarget(bus.NewTargetPort("tgt", 2, 2))
		}
		return x
	}
	rows := []struct {
		name string
		set  func(x *Interconnect)
	}{
		{"AR rr negative", func(x *Interconnect) { x.ts[0].arRR = -1 }},
		{"AR rr past masters", func(x *Interconnect) { x.ts[1].arRR = ni }},
		{"AW rr negative", func(x *Interconnect) { x.ts[1].awRR = -3 }},
		{"AW rr past masters", func(x *Interconnect) { x.ts[0].awRR = ni }},
		{"R rr negative", func(x *Interconnect) { x.is[2].rRR = -1 }},
		{"R rr past slaves", func(x *Interconnect) { x.is[0].rRR = nt }},
		{"B rr negative", func(x *Interconnect) { x.is[1].bRR = -2 }},
		{"B rr past slaves", func(x *Interconnect) { x.is[2].bRR = nt + 5 }},
		{"write source past masters", func(x *Interconnect) {
			x.ts[1].wCur = &bus.Request{Src: 9, Op: bus.OpWrite, Posted: true, Beats: 2}
			x.ts[1].wBeatsLeft = 1
		}},
		{"write source negative", func(x *Interconnect) {
			x.ts[0].wCur = &bus.Request{Src: -1, Op: bus.OpWrite, Beats: 2}
			x.ts[0].wBeatsLeft = 1
		}},
		{"register stage source past masters", func(x *Interconnect) {
			x.ts[0].reqPipe = append(x.ts[0].reqPipe, pipedReq{req: &bus.Request{Src: ni, Op: bus.OpRead, Beats: 1}})
		}},
		{"register stage request missing", func(x *Interconnect) {
			x.ts[1].reqPipe = append(x.ts[1].reqPipe, pipedReq{})
		}},
	}
	decode := func(x *Interconnect) error {
		e := snapshot.NewEncoder()
		x.EncodeState(e)
		d, err := snapshot.NewDecoder(e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		build().DecodeState(d, nil)
		return d.Finish()
	}
	if err := decode(build()); err != nil {
		t.Fatalf("a fresh interconnect does not round-trip: %v", err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			x := build()
			row.set(x)
			if err := decode(x); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("decode returned %v, want %v", err, snapshot.ErrCorrupt)
			}
		})
	}
}
