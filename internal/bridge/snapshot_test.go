package bridge

import (
	"errors"
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/mem"
	"mpsocsim/internal/snapshot"
)

// TestDecodeStateRejectsOutOfRange queues a missing context in each line or
// queue the bridge dereferences after a restore, and requires DecodeState
// to reject the snapshot instead of letting Run dereference it.
func TestDecodeStateRejectsOutOfRange(t *testing.T) {
	build := func() *Bridge {
		return newChain(t, GenConv(2), 250, 200, mem.DefaultConfig(), []*bus.Request{rd(1, 0x100, 4), rd(2, 0x200, 2)}).br
	}
	rows := []struct {
		name string
		set  func(b *Bridge)
	}{
		{"delay line without a context", func(b *Bridge) { b.delayLine = append(b.delayLine, delayedReq{}) }},
		{"request crossing without a context", func(b *Bridge) { b.reqX.Push(nil); b.reqX.WriterUpdate() }},
		{"held line without a context", func(b *Bridge) { b.held = append(b.held, heldReq{}) }},
		{"source queue without a context", func(b *Bridge) { b.perSrc[0] = append(b.perSrc[0], nil) }},
	}
	decode := func(b *Bridge) error {
		e := snapshot.NewEncoder()
		b.EncodeState(e)
		d, err := snapshot.NewDecoder(e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		build().DecodeState(d, nil)
		return d.Finish()
	}
	c := newChain(t, GenConv(2), 250, 200, mem.DefaultConfig(), []*bus.Request{rd(1, 0x100, 4), rd(2, 0x200, 2)})
	c.k.RunUntil(20_000) // contexts in flight
	if err := decode(c.br); err != nil {
		t.Fatalf("a bridge does not round-trip: %v", err)
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
