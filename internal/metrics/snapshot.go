package metrics

import "mpsocsim/internal/snapshot"

// EncodeState serializes the sampler's mutable state (DESIGN.md §16): the
// sample count and the ring contents, re-packed oldest-first so the
// byte stream is independent of where the head happened to sit. Gauge values
// themselves are live reads of component counters — those are restored by the
// components — so only the recorded rows travel. The clock name, track count
// and ring capacity guard shape.
func (s *Sampler) EncodeState(e *snapshot.Encoder) {
	e.Tag('Z')
	e.Str(s.clock)
	e.U(uint64(len(s.gauges)))
	e.U(uint64(s.cap))
	e.I(s.n)
	kept := int(s.n)
	start := 0
	if kept > s.cap {
		kept = s.cap
		start = s.head // oldest surviving row
	}
	e.U(uint64(kept))
	nt := len(s.gauges)
	for i := 0; i < kept; i++ {
		slot := (start + i) % s.cap
		e.I(s.times[slot])
		for _, v := range s.vals[slot*nt : (slot+1)*nt] {
			e.I(v)
		}
	}
}

// DecodeState restores a sampler serialized by EncodeState. Rows are placed
// from slot 0 with the head advanced past them, which reproduces the exported
// timeline exactly (it only depends on logical order, not physical layout).
// The sample count must be non-negative and the kept rows exactly the ring's
// share of it, min(n, cap): the timeline export sizes its rows from n.
func (s *Sampler) DecodeState(d *snapshot.Decoder) {
	d.Tag('Z')
	clock := d.Str()
	nt := d.N(1 << 16)
	rcap := d.N(1 << 24)
	if d.Err() != nil {
		return
	}
	if clock != s.clock || nt != len(s.gauges) || rcap != s.cap {
		d.Corrupt("sampler %q/%d tracks/cap %d does not match platform's %q/%d/%d",
			clock, nt, rcap, s.clock, len(s.gauges), s.cap)
		return
	}
	s.n = d.I()
	kept := d.N(s.cap)
	if d.Err() != nil {
		return
	}
	if s.n < 0 || int64(kept) != min(s.n, int64(s.cap)) {
		d.Corrupt("sampler %q keeps %d rows of %d samples (ring %d)", s.clock, kept, s.n, s.cap)
		return
	}
	for i := range s.times {
		s.times[i] = 0
	}
	for i := range s.vals {
		s.vals[i] = 0
	}
	for i := 0; i < kept; i++ {
		s.times[i] = d.I()
		for j := 0; j < nt; j++ {
			s.vals[i*nt+j] = d.I()
		}
		if d.Err() != nil {
			return
		}
	}
	s.head = kept % s.cap
}
