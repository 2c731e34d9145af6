package stbus

import (
	"errors"
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/snapshot"
	"mpsocsim/internal/testutil"
)

// TestDecodeStateRejectsOutOfRange sets one restored pointer, lock, window,
// count or in-flight request source outside the range the node indexes
// with, and requires the decoder to reject the snapshot as corrupt instead
// of handing Run a node that panics on its next edge.
func TestDecodeStateRejectsOutOfRange(t *testing.T) {
	const ni, nt = 3, 2
	build := func() *Node {
		n := NewNode("n", DefaultConfig(), testutil.Regions(nt))
		for i := 0; i < ni; i++ {
			n.AttachInitiator(bus.NewInitiatorPort("ini", 2, 2))
		}
		for i := 0; i < nt; i++ {
			n.AttachTarget(bus.NewTargetPort("tgt", 2, 2))
		}
		return n
	}
	rows := []struct {
		name string
		set  func(n *Node)
	}{
		{"request rr negative", func(n *Node) { n.reqCh[1].rr = -3 }},
		{"request rr past initiators", func(n *Node) { n.reqCh[0].rr = ni }},
		{"message lock past initiators", func(n *Node) { n.reqCh[0].msgLock = 42 }},
		{"message lock below free", func(n *Node) { n.reqCh[1].msgLock = -2 }},
		{"beats left negative", func(n *Node) { n.reqCh[0].beatsLeft = -1 }},
		{"response rr negative", func(n *Node) { n.respCh[2].rr = -1 }},
		{"response rr past targets", func(n *Node) { n.respCh[0].rr = nt }},
		{"outstanding negative", func(n *Node) { n.outstanding[1] = -1 }},
		{"outstanding past limit", func(n *Node) { n.outstanding[0] = n.cfg.MaxOutstanding + 1 }},
		{"window target past targets", func(n *Node) { n.outTarget[2] = nt }},
		{"window target below none", func(n *Node) { n.outTarget[0] = -2 }},
		{"channel source past initiators", func(n *Node) {
			n.reqCh[1].cur = &bus.Request{Src: 9, Op: bus.OpWrite, Posted: true, Beats: 2}
			n.reqCh[1].beatsLeft = 1
		}},
		{"channel source negative", func(n *Node) {
			n.reqCh[0].cur = &bus.Request{Src: -1, Op: bus.OpRead, Beats: 1}
			n.reqCh[0].beatsLeft = 1
		}},
	}
	decode := func(n *Node) error {
		e := snapshot.NewEncoder()
		n.EncodeState(e)
		d, err := snapshot.NewDecoder(e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		build().DecodeState(d, nil)
		return d.Finish()
	}
	if err := decode(build()); err != nil {
		t.Fatalf("a fresh node does not round-trip: %v", err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			n := build()
			row.set(n)
			if err := decode(n); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("decode returned %v, want %v", err, snapshot.ErrCorrupt)
			}
		})
	}
}
