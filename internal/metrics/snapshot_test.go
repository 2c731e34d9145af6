package metrics

import (
	"errors"
	"reflect"
	"testing"

	"mpsocsim/internal/snapshot"
)

// TestSamplerDecodeRejectsBadCount restores sampler sections whose sample
// count n and kept-row count disagree, and requires the decoder to reject
// them as corrupt instead of handing the registry a ring whose timeline
// export panics. A wrapped sampler and a consistent hand-built section must
// still round-trip.
func TestSamplerDecodeRejectsBadCount(t *testing.T) {
	const rcap = 4
	build := func() (*Registry, *Sampler) {
		r := NewRegistry()
		r.GaugeFunc("q.depth", "clk", func() int64 { return 7 })
		return r, r.NewSampler("clk", 4000, 10, rcap)
	}
	// section hand-encodes what EncodeState writes, with n and the kept-row
	// count chosen freely.
	section := func(n int64, kept int) []byte {
		e := snapshot.NewEncoder()
		e.Tag('Z')
		e.Str("clk")
		e.U(1)
		e.U(rcap)
		e.I(n)
		e.U(uint64(kept))
		for i := 0; i < kept; i++ {
			e.I(int64(10 * (i + 1)))
			e.I(7)
		}
		return e.Bytes()
	}
	decode := func(data []byte) (*Registry, error) {
		d, err := snapshot.NewDecoder(data)
		if err != nil {
			t.Fatal(err)
		}
		r, s := build()
		s.DecodeState(d)
		return r, d.Finish()
	}

	t.Run("round trip", func(t *testing.T) {
		src, s := build()
		for c := int64(1); c <= 6; c++ {
			s.Sample(c)
		}
		e := snapshot.NewEncoder()
		s.EncodeState(e)
		dst, err := decode(e.Bytes())
		if err != nil {
			t.Fatalf("a wrapped sampler does not round-trip: %v", err)
		}
		if got, want := dst.Snapshot().Timelines, src.Snapshot().Timelines; !reflect.DeepEqual(got, want) {
			t.Fatalf("restored timeline %+v, want %+v", got, want)
		}
		if _, err := decode(section(rcap+3, rcap)); err != nil {
			t.Fatalf("a consistent section does not decode: %v", err)
		}
	})
	rows := []struct {
		name string
		n    int64
		kept int
	}{
		{"n negative", -5, 0},
		{"kept short of n", 3, 2},
		{"kept beyond n", 1, 2},
		{"kept short of a full ring", rcap + 3, rcap - 1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if _, err := decode(section(row.n, row.kept)); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("decode returned %v, want %v", err, snapshot.ErrCorrupt)
			}
		})
	}
}
