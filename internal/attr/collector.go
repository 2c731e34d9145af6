package attr

import (
	"sort"

	"mpsocsim/internal/stats"
)

// DefaultCapacity is the number of Records preallocated by NewCollector when
// the caller passes <= 0: enough for every outstanding transaction of the
// reference platform with generous headroom.
const DefaultCapacity = 1024

// growChunk is the number of Records added per free-list refill when the
// preallocated capacity is exhausted (counted in Grown — steady state should
// never need it).
const growChunk = 256

// slot aggregates one initiator's attribution matrix row: a latency
// histogram per phase plus the end-to-end distribution, all in picoseconds.
type slot struct {
	name   string
	origin int
	phase  [NumPhases]stats.Histogram
	e2e    stats.Histogram
}

// Collector owns the Record free list and the per-initiator × per-phase
// attribution matrices. One collector serves the whole platform; it is not
// safe for concurrent use (the simulation kernel is single-threaded).
type Collector struct {
	slots []*slot
	index map[int]int32 // origin → slots index

	free  []*Record
	grown int64

	started        int64
	finished       int64
	unknownOrigin  int64
	overflowedTxns int64

	// retention ring (optional): finished transactions kept verbatim for
	// the Chrome-trace waterfall and per-transaction invariant tests.
	retained []RetainedTx
	retHead  int
	retN     int64
}

// RetainedTx is one finished transaction's verbatim segment log.
type RetainedTx struct {
	Origin  int
	Write   bool
	Posted  bool
	StartPS int64
	EndPS   int64
	N       int
	Phases  [MaxSegments]Phase
	Starts  [MaxSegments]int64
}

// NewCollector preallocates capacity Records (DefaultCapacity when <= 0).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	arena := make([]Record, capacity)
	free := make([]*Record, capacity)
	for i := range arena {
		free[i] = &arena[i]
	}
	return &Collector{
		index: make(map[int]int32),
		free:  free,
	}
}

// AddInitiator registers one initiator row of the attribution matrix. Call
// once per initiator, in platform build order, before the run starts;
// transactions from unregistered origins are finished but only counted.
func (c *Collector) AddInitiator(origin int, name string) {
	c.index[origin] = int32(len(c.slots))
	c.slots = append(c.slots, &slot{name: name, origin: origin})
}

// EnableRetention preallocates a ring keeping the last n finished
// transactions' segment logs (oldest overwritten, counted in RetainedDropped).
func (c *Collector) EnableRetention(n int) {
	if n <= 0 {
		n = 4096
	}
	c.retained = make([]RetainedTx, n)
	c.retHead = 0
	c.retN = 0
}

// Start opens a record for a transaction issued at absolute time issuePS by
// the given origin. The record begins in PhaseInitQueue at issuePS — fabrics
// call Start lazily at the first head-of-queue scan, and the elapsed
// initiator-queue time is recovered retroactively from issuePS. Zero
// allocations while the preallocated free list lasts.
func (c *Collector) Start(origin int, issuePS int64, write, posted bool) *Record {
	var r *Record
	if n := len(c.free); n > 0 {
		r = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		chunk := make([]Record, growChunk)
		for i := 1; i < growChunk; i++ {
			c.free = append(c.free, &chunk[i])
		}
		r = &chunk[0]
		c.grown += growChunk
	}
	si, ok := c.index[origin]
	if !ok {
		si = -1
	}
	r.slot = si
	r.n = 1
	r.overflows = 0
	r.write = write
	r.posted = posted
	r.startPS = issuePS
	r.phases[0] = PhaseInitQueue
	r.starts[0] = issuePS
	c.started++
	return r
}

// Finish closes the record at absolute time endPS, folds its segment
// durations into the attribution matrix and recycles it. The caller must
// drop its pointer afterwards. Zero allocations.
func (c *Collector) Finish(r *Record, endPS int64) {
	last := r.starts[r.n-1]
	if endPS < last {
		endPS = last
	}
	c.finished++
	if r.overflows > 0 {
		c.overflowedTxns++
	}
	if r.slot >= 0 {
		s := c.slots[r.slot]
		n := int(r.n)
		for i := 0; i < n; i++ {
			end := endPS
			if i+1 < n {
				end = r.starts[i+1]
			}
			if d := end - r.starts[i]; d > 0 {
				s.phase[r.phases[i]].Add(d)
			}
		}
		s.e2e.Add(endPS - r.startPS)
	} else {
		c.unknownOrigin++
	}
	if c.retained != nil {
		t := &c.retained[c.retHead]
		t.Origin = r.originOf(c)
		t.Write = r.write
		t.Posted = r.posted
		t.StartPS = r.startPS
		t.EndPS = endPS
		t.N = int(r.n)
		t.Phases = r.phases
		t.Starts = r.starts
		c.retHead++
		if c.retHead == len(c.retained) {
			c.retHead = 0
		}
		c.retN++
	}
	c.free = append(c.free, r)
}

// originOf maps the record's slot back to a system origin (-1 if unknown).
func (r *Record) originOf(c *Collector) int {
	if r.slot >= 0 {
		return c.slots[r.slot].origin
	}
	return -1
}

// InitiatorName returns the registered name for an origin ("" if unknown).
func (c *Collector) InitiatorName(origin int) string {
	if si, ok := c.index[origin]; ok {
		return c.slots[si].name
	}
	return ""
}

// Started returns the number of records opened.
func (c *Collector) Started() int64 { return c.started }

// Finished returns the number of records closed.
func (c *Collector) Finished() int64 { return c.finished }

// Grown returns how many Records were allocated beyond the initial capacity
// (0 in steady state).
func (c *Collector) Grown() int64 { return c.grown }

// Retained returns the retention ring's contents in completion order
// (allocates; call after the run).
func (c *Collector) Retained() []RetainedTx {
	if c.retained == nil {
		return nil
	}
	kept := c.retN
	if kept > int64(len(c.retained)) {
		kept = int64(len(c.retained))
	}
	out := make([]RetainedTx, 0, kept)
	start := 0
	if c.retN > int64(len(c.retained)) {
		start = c.retHead
	}
	for i := int64(0); i < kept; i++ {
		out = append(out, c.retained[(start+int(i))%len(c.retained)])
	}
	return out
}

// RetainedDropped counts finished transactions overwritten in the ring.
func (c *Collector) RetainedDropped() int64 {
	if c.retained == nil || c.retN <= int64(len(c.retained)) {
		return 0
	}
	return c.retN - int64(len(c.retained))
}

// PhaseStats is one cell row of the attribution matrix: the distribution of
// time one initiator's transactions spent in one phase. N counts only the
// transactions that actually visited the phase (zero durations are not
// samples), but TotalPS still conserves: the per-initiator phase totals sum
// exactly to the end-to-end total.
type PhaseStats struct {
	Phase   string  `json:"phase"`
	N       int64   `json:"n"`
	TotalPS int64   `json:"total_ps"`
	MeanPS  float64 `json:"mean_ps"`
	P50PS   int64   `json:"p50_ps"`
	P99PS   int64   `json:"p99_ps"`
	MaxPS   int64   `json:"max_ps"`
	// Share is this phase's fraction of the initiator's total attributed
	// time.
	Share float64 `json:"share"`
}

// InitiatorStats is one initiator's row: end-to-end distribution plus the
// per-phase breakdown (enum order, phases never visited omitted) and the
// dominant phase by total time.
type InitiatorStats struct {
	Initiator    string       `json:"initiator"`
	Origin       int          `json:"origin"`
	Transactions int64        `json:"transactions"`
	TotalPS      int64        `json:"total_ps"`
	MeanPS       float64      `json:"mean_ps"`
	P50PS        int64        `json:"p50_ps"`
	P99PS        int64        `json:"p99_ps"`
	MaxPS        int64        `json:"max_ps"`
	Dominant     string       `json:"dominant_phase"`
	Phases       []PhaseStats `json:"phases"`
}

// Snapshot is the exported attribution matrix (the report's `attribution`
// section).
type Snapshot struct {
	Started         int64            `json:"started"`
	Finished        int64            `json:"finished"`
	UnknownOrigin   int64            `json:"unknown_origin,omitempty"`
	OverflowedTxns  int64            `json:"overflowed_txns,omitempty"`
	RetainedDropped int64            `json:"retained_dropped,omitempty"`
	Initiators      []InitiatorStats `json:"initiators"`
}

// Snapshot renders the matrices (allocates; call after the run). Initiators
// appear in registration order — the platform's deterministic build order —
// so reports are byte-identical across runs.
func (c *Collector) Snapshot() *Snapshot {
	snap := &Snapshot{
		Started:         c.started,
		Finished:        c.finished,
		UnknownOrigin:   c.unknownOrigin,
		OverflowedTxns:  c.overflowedTxns,
		RetainedDropped: c.RetainedDropped(),
	}
	for _, s := range c.slots {
		is := InitiatorStats{
			Initiator:    s.name,
			Origin:       s.origin,
			Transactions: s.e2e.N(),
			TotalPS:      s.e2e.Sum(),
			MeanPS:       s.e2e.Mean(),
			P50PS:        s.e2e.Quantile(0.5),
			P99PS:        s.e2e.Quantile(0.99),
			MaxPS:        s.e2e.Max(),
		}
		bestTotal := int64(-1)
		for ph := 0; ph < NumPhases; ph++ {
			h := &s.phase[ph]
			if h.N() == 0 {
				continue
			}
			ps := PhaseStats{
				Phase:   Phase(ph).String(),
				N:       h.N(),
				TotalPS: h.Sum(),
				MeanPS:  h.Mean(),
				P50PS:   h.Quantile(0.5),
				P99PS:   h.Quantile(0.99),
				MaxPS:   h.Max(),
			}
			if is.TotalPS > 0 {
				ps.Share = float64(ps.TotalPS) / float64(is.TotalPS)
			}
			if ps.TotalPS > bestTotal {
				bestTotal = ps.TotalPS
				is.Dominant = ps.Phase
			}
			is.Phases = append(is.Phases, ps)
		}
		snap.Initiators = append(snap.Initiators, is)
	}
	return snap
}

// Dominant returns snapshot initiators sorted by total attributed time,
// heaviest first (the -attr-top ordering); ties keep registration order.
func (s *Snapshot) Dominant() []InitiatorStats {
	out := make([]InitiatorStats, len(s.Initiators))
	copy(out, s.Initiators)
	sort.SliceStable(out, func(i, j int) bool { return out[i].TotalPS > out[j].TotalPS })
	return out
}
