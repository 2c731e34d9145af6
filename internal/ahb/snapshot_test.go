package ahb

import (
	"errors"
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/snapshot"
	"mpsocsim/internal/testutil"
)

// TestDecodeStateRejectsOutOfRange sets the restored round-robin pointer, or
// the master or slave of an in-flight transaction, outside the ports it
// indexes, and requires the decoder to reject the snapshot as corrupt
// instead of handing Run a bus that panics on its next edge.
func TestDecodeStateRejectsOutOfRange(t *testing.T) {
	const ni, nt = 3, 2
	build := func() *Bus {
		b := New("ahb0", DefaultConfig(), testutil.Regions(nt))
		for i := 0; i < ni; i++ {
			b.AttachInitiator(bus.NewInitiatorPort("ini", 2, 2))
		}
		for i := 0; i < nt; i++ {
			b.AttachTarget(bus.NewTargetPort("tgt", 2, 2))
		}
		return b
	}
	rows := []struct {
		name string
		set  func(b *Bus)
	}{
		{"rr negative", func(b *Bus) { b.rr = -3 }},
		{"rr past masters", func(b *Bus) { b.rr = ni }},
		{"data-phase slave past slaves", func(b *Bus) { b.cur, b.curTarget = &bus.Request{Src: 1}, 5 }},
		{"data-phase master past masters", func(b *Bus) { b.cur, b.curTarget = &bus.Request{Src: 7}, 0 }},
		{"address-phase slave negative", func(b *Bus) {
			b.cur, b.curTarget = &bus.Request{Src: 0}, 1
			b.next, b.nextTarget = &bus.Request{Src: 2}, -1
		}},
		{"address-phase master negative", func(b *Bus) {
			b.cur, b.curTarget = &bus.Request{Src: 0}, 1
			b.next, b.nextTarget = &bus.Request{Src: -1}, 0
		}},
	}
	decode := func(b *Bus) error {
		e := snapshot.NewEncoder()
		b.EncodeState(e)
		d, err := snapshot.NewDecoder(e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		build().DecodeState(d, nil)
		return d.Finish()
	}
	if err := decode(build()); err != nil {
		t.Fatalf("a fresh bus does not round-trip: %v", err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			b := build()
			row.set(b)
			if err := decode(b); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("decode returned %v, want %v", err, snapshot.ErrCorrupt)
			}
		})
	}
}
