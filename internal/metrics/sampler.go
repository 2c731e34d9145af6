package metrics

// Sampler records the level of every gauge of one clock domain into a
// preallocated ring, producing the cycle-stamped timelines behind the
// Chrome-trace counter tracks and the JSON report's series. No allocation
// ever happens after construction — once the ring is full the oldest
// samples are overwritten (and counted in Dropped) rather than the storage
// regrown.
//
// A sampler is passive: something must call Sample to record a row.
// Driving many samplers from one shared trigger is deliberately cheap —
// per-cycle cost lives in the trigger (one decrement and one branch), not in
// per-sampler clock registrations, whose interface dispatch on every domain
// edge measurably slows the kernel's hot loop.
type Sampler struct {
	clock    string
	periodPS int64
	every    int64
	cap      int

	gauges []*Gauge

	n     int64 // total samples taken (may exceed cap)
	head  int   // next ring slot to write
	times []int64
	vals  []int64 // cap rows of len(gauges), row-major
}

// DefaultSampleEvery is the default sampling window in cycles: fine enough
// to resolve the paper's Fig.6 working regimes (whose phase window is 2000
// cycles), coarse enough that sampling cost is invisible.
const DefaultSampleEvery = 256

// DefaultSampleCap is the default ring capacity in samples per domain.
const DefaultSampleCap = 4096

// NewSampler attaches a sampler for the named clock domain: it records every
// gauge registered with that clock name. every is the sampling window in
// driving-clock cycles, which the timeline reports; capSamples bounds the
// ring (both fall back to the package defaults when <= 0). The sampler must
// be created after all gauges of the domain are registered, then driven by
// an external trigger calling Sample once per window.
func (r *Registry) NewSampler(clock string, periodPS, every int64, capSamples int) *Sampler {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	if capSamples <= 0 {
		capSamples = DefaultSampleCap
	}
	s := &Sampler{clock: clock, periodPS: periodPS, every: every, cap: capSamples}
	for _, g := range r.gauges {
		if g.clock == clock {
			s.gauges = append(s.gauges, g)
		}
	}
	s.times = make([]int64, capSamples)
	s.vals = make([]int64, capSamples*len(s.gauges))
	r.samplers = append(r.samplers, s)
	return s
}

// Tracks returns the number of gauges the sampler records.
func (s *Sampler) Tracks() int { return len(s.gauges) }

// Sample records one row stamped with the given domain-cycle count. Called
// by an external trigger (one per platform, not per domain). Zero
// allocations: the ring storage is preallocated.
func (s *Sampler) Sample(cycle int64) {
	s.times[s.head] = cycle
	base := s.head * len(s.gauges)
	for i, g := range s.gauges {
		s.vals[base+i] = g.Value()
	}
	s.head++
	if s.head == s.cap {
		s.head = 0
	}
	s.n++
}

// Timeline is the exported contents of one sampler ring: parallel tracks of
// gauge levels sampled on a common cycle axis of one clock domain.
type Timeline struct {
	Clock    string `json:"clock"`
	PeriodPS int64  `json:"period_ps"`
	// Every is the sampling window in cycles of the driving clock, not of
	// this domain: Platform.EnableTimelines samples every domain together,
	// every Every central cycles, so a faster or slower domain's Cycles step
	// by Every scaled to its own clock.
	Every  int64    `json:"every_cycles"`
	Tracks []string `json:"tracks"`
	// Cycles holds the sample timestamps in domain cycles, oldest first.
	Cycles []int64 `json:"cycles"`
	// Values holds one row per sample, one column per track.
	Values [][]int64 `json:"values"`
	// Dropped counts samples overwritten after the ring filled.
	Dropped int64 `json:"dropped,omitempty"`
}

// timeline copies the ring contents in chronological order.
func (s *Sampler) timeline() Timeline {
	tl := Timeline{
		Clock:    s.clock,
		PeriodPS: s.periodPS,
		Every:    s.every,
		Tracks:   make([]string, len(s.gauges)),
	}
	for i, g := range s.gauges {
		tl.Tracks[i] = g.name
	}
	kept := int(s.n)
	if kept > s.cap {
		kept = s.cap
		tl.Dropped = s.n - int64(s.cap)
	}
	tl.Cycles = make([]int64, kept)
	tl.Values = make([][]int64, kept)
	start := 0
	if s.n > int64(s.cap) {
		start = s.head // oldest surviving sample
	}
	nt := len(s.gauges)
	for i := 0; i < kept; i++ {
		slot := (start + i) % s.cap
		tl.Cycles[i] = s.times[slot]
		row := make([]int64, nt)
		copy(row, s.vals[slot*nt:(slot+1)*nt])
		tl.Values[i] = row
	}
	return tl
}
