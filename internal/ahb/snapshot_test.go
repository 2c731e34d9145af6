package ahb

import (
	"errors"
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/snapshot"
	"mpsocsim/internal/testutil"
)

// TestDecodeStateRejectsOutOfRange sets the restored round-robin pointer
// outside the masters it indexes, and requires the decoder to reject the
// snapshot as corrupt instead of handing Run a bus that panics on its next
// arbitration.
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
