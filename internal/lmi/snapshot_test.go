package lmi

import (
	"errors"
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/snapshot"
)

// TestDecodeStateRejectsOutOfRange restores a response stream without its
// request, which the controller dereferences when it emits the stream's
// first beat, and requires DecodeState to reject the snapshot.
func TestDecodeStateRejectsOutOfRange(t *testing.T) {
	decode := func(c *Controller) error {
		e := snapshot.NewEncoder()
		c.EncodeState(e)
		d, err := snapshot.NewDecoder(e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		newHarness(DefaultConfig(), nil).c.DecodeState(d, nil)
		return d.Finish()
	}
	h := newHarness(DefaultConfig(), []*bus.Request{rd(1, 0x100, 4), rd(2, 0x4000, 4)})
	h.k.RunUntil(100_000) // streams in flight
	if err := decode(h.c); err != nil {
		t.Fatalf("a controller does not round-trip: %v", err)
	}
	t.Run("response stream without a request", func(t *testing.T) {
		c := newHarness(DefaultConfig(), nil).c
		c.streams = append(c.streams, stream{beats: 2})
		if err := decode(c); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("decode returned %v, want %v", err, snapshot.ErrCorrupt)
		}
	})
}
