package stats

import "mpsocsim/internal/snapshot"

// Checkpoint codecs for the measurement primitives (DESIGN.md §16).

// EncodeState serializes the histogram: the non-zero buckets (index/count
// pairs — latency histograms are sparse) plus the exact running moments.
func (h *Histogram) EncodeState(e *snapshot.Encoder) {
	e.Tag('H')
	nz := 0
	for _, c := range h.counts {
		if c != 0 {
			nz++
		}
	}
	e.U(uint64(nz))
	for b, c := range h.counts {
		if c != 0 {
			e.U(uint64(b))
			e.I(c)
		}
	}
	e.I(h.n)
	e.I(h.sum)
	e.I(h.min)
	e.I(h.max)
}

// DecodeState restores a histogram serialized by EncodeState.
func (h *Histogram) DecodeState(d *snapshot.Decoder) {
	d.Tag('H')
	*h = Histogram{}
	nz := d.N(len(h.counts))
	for i := 0; i < nz; i++ {
		b := d.N(len(h.counts) - 1)
		c := d.I()
		if d.Err() != nil {
			return
		}
		h.counts[b] = c
	}
	h.n = d.I()
	h.sum = d.I()
	h.min = d.I()
	h.max = d.I()
}

// maxTrackerWindows bounds decoded window counts (a 50 ms run at the
// smallest window size stays far below this).
const maxTrackerWindows = 1 << 22

// EncodeState serializes the tracker's observation history: the in-progress
// window, the lifetime totals and every completed window's counts. State
// names and window size are construction parameters, re-derived from the
// spec; a fingerprint of both guards against decoding into a differently
// shaped tracker.
func (p *PhaseTracker) EncodeState(e *snapshot.Encoder) {
	e.Tag('P')
	e.U(uint64(len(p.states)))
	e.I(p.windowSize)
	e.I(p.cycle)
	for _, c := range p.current {
		e.I(c)
	}
	for _, c := range p.total {
		e.I(c)
	}
	e.U(uint64(len(p.windows)))
	for i := range p.windows {
		w := &p.windows[i]
		e.I(w.StartCycle)
		e.I(w.Cycles)
		for _, c := range w.Counts {
			e.I(c)
		}
	}
}

// DecodeState restores a tracker serialized by EncodeState. The receiver
// must have been constructed with the same states and window size.
func (p *PhaseTracker) DecodeState(d *snapshot.Decoder) {
	d.Tag('P')
	ns := d.N(1 << 10)
	ws := d.I()
	if d.Err() != nil {
		return
	}
	if ns != len(p.states) || ws != p.windowSize {
		d.Corrupt("phase tracker shape mismatch: snapshot has %d states / window %d, tracker has %d / %d",
			ns, ws, len(p.states), p.windowSize)
		return
	}
	p.cycle = d.I()
	if p.cycle < 0 {
		d.Corrupt("negative phase tracker cycle count %d", p.cycle)
		return
	}
	p.left = p.windowSize - p.cycle%p.windowSize
	for i := range p.current {
		p.current[i] = d.I()
	}
	for i := range p.total {
		p.total[i] = d.I()
	}
	nw := d.N(maxTrackerWindows)
	if d.Err() != nil {
		return
	}
	// Rebuild the window list through the arena discipline so post-restore
	// observation keeps the allocation-free roll() path.
	p.windows = p.windows[:0]
	p.arena = make([]int64, arenaWindows*ns)
	for i := 0; i < nw; i++ {
		if len(p.arena) < ns {
			p.arena = make([]int64, arenaWindows*ns)
		}
		counts := p.arena[:ns:ns]
		p.arena = p.arena[ns:]
		w := Window{StartCycle: d.I(), Cycles: d.I(), Counts: counts}
		for j := 0; j < ns; j++ {
			counts[j] = d.I()
		}
		if d.Err() != nil {
			return
		}
		p.windows = append(p.windows, w)
	}
}
