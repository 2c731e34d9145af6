// Package telemetry is the live observability layer and the platform's one
// periodic sampler: in-run snapshots of the metrics registry, collected at
// safe boundaries of the run loop (after a fully committed central-clock
// instant) into a preallocated ring, and exported as NDJSON, CSV or VCD
// streams (stream.go), the counter tracks of a Chrome trace-event file
// beside the captured transaction lifecycles (chrome.go), a live HTTP
// endpoint with Prometheus exposition, SSE events and a JSON progress
// document (server.go), a multi-job aggregation hub for experiment sweeps
// (hub.go) and the post-mortem stall forensics of a wedged run
// (forensics.go).
//
// Design constraints, in priority order (mirroring internal/metrics):
//
//  1. Zero allocations on the collection hot path. Collect writes into ring
//     rows whose storage is preallocated at construction; export — the JSON
//     encoding, the HTTP handlers — happens on reader goroutines that drain
//     the ring under its mutex and may allocate freely.
//  2. Deterministic records. A Record carries only simulated state (cycle,
//     simulated time, per-initiator and instrument values in registration
//     order) — never wall-clock time or rates — so two runs of the same spec
//     stream byte-identical NDJSON, and a telemetry-enabled run leaves the
//     run report untouched. Wall-clock
//     derived figures (cycles/s, ETA) live only in the live progress
//     document, which is explicitly non-deterministic.
//  3. The run itself is never observable through telemetry: the collector
//     only reads component state, so enabling or disabling it cannot change
//     a single simulated event.
package telemetry

import (
	"sync"
	"time"

	"mpsocsim/internal/metrics"
)

// Schema identifies the NDJSON telemetry record layout. Consumers must check
// it before interpreting the rest of each record; purely additive changes
// keep the version.
const Schema = "mpsocsim.telemetry/1"

// DefaultRingCap is the snapshot ring capacity when the caller passes <= 0.
const DefaultRingCap = 1024

// InitiatorSource is the per-traffic-source view the collector samples:
// platform initiators (generators, replayers, I/O agents) satisfy it.
type InitiatorSource interface {
	Name() string
	Issued() int64
	Completed() int64
}

// row is one preallocated ring slot. All slices are allocated once at
// construction and overwritten in place.
type row struct {
	seq    int64
	cycle  int64
	ps     int64
	wallNS int64

	issued    int64
	completed int64

	initIssued    []int64
	initCompleted []int64
	counters      []int64
	gauges        []int64
}

// InitiatorRecord is one traffic source's slice of a Record.
type InitiatorRecord struct {
	Name      string `json:"name"`
	Issued    int64  `json:"issued"`
	Completed int64  `json:"completed"`
	// Outstanding is Issued - Completed: the transactions genuinely in
	// flight at the snapshot instant (posted writes complete at issue).
	Outstanding int64 `json:"outstanding"`
}

// Record is one exported telemetry snapshot. Every field is simulated state:
// two runs of the same spec — streamed or not — produce
// byte-identical record sequences. WallNS (the wall-clock offset the live
// endpoint derives rates from) is deliberately excluded from the JSON form.
type Record struct {
	Schema    string `json:"schema"`
	Seq       int64  `json:"seq"`
	Cycle     int64  `json:"cycle"`
	TimePS    int64  `json:"time_ps"`
	Issued    int64  `json:"issued"`
	Completed int64  `json:"completed"`

	Initiators []InitiatorRecord      `json:"initiators"`
	Counters   []metrics.CounterValue `json:"counters"`
	Gauges     []metrics.GaugeValue   `json:"gauges"`

	WallNS int64 `json:"-"`
}

// Collector takes periodic snapshots of a platform's instruments into a
// fixed-capacity ring. The writer side (Collect, called from the simulation
// loop) is allocation-free; reader-side exports drain under the same mutex
// and build JSON-ready Records.
type Collector struct {
	counters  []*metrics.Counter
	gauges    []*metrics.Gauge
	gaugeClks []string
	inits     []InitiatorSource
	initNames []string

	start time.Time

	mu      sync.Mutex
	rows    []row
	head    int // next slot to overwrite
	count   int // live rows (<= len(rows))
	seq     int64
	dropped int64
	done    bool

	// run-shape fields for the progress document, set by the platform
	// before/at Run under mu.
	budgetPS int64

	publish func(cycle, ps int64)
	notify  chan struct{}
}

// NewCollector builds a collector over the registry's instruments (in
// registration order) and the given traffic sources, preallocating a ring of
// ringCap rows (DefaultRingCap when <= 0). All per-row storage is allocated
// here, so Collect never allocates.
func NewCollector(reg *metrics.Registry, inits []InitiatorSource, ringCap int) *Collector {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	c := &Collector{
		counters: reg.Counters(),
		gauges:   reg.Gauges(),
		inits:    inits,
		start:    time.Now(),
		rows:     make([]row, ringCap),
		notify:   make(chan struct{}, 1),
	}
	for _, g := range c.gauges {
		c.gaugeClks = append(c.gaugeClks, g.Clock())
	}
	for _, in := range inits {
		c.initNames = append(c.initNames, in.Name())
	}
	for i := range c.rows {
		c.rows[i].initIssued = make([]int64, len(inits))
		c.rows[i].initCompleted = make([]int64, len(inits))
		c.rows[i].counters = make([]int64, len(c.counters))
		c.rows[i].gauges = make([]int64, len(c.gauges))
	}
	return c
}

// SetBudgetPS records the run's simulated-time budget for the progress
// document's ETA; call before Run.
func (c *Collector) SetBudgetPS(ps int64) {
	c.mu.Lock()
	c.budgetPS = ps
	c.mu.Unlock()
}

// SetPublish installs a hook called after every Collect with the snapshot's
// cycle and simulated time. The hook runs on the simulation goroutine and
// must not allocate in steady state — the experiments hub uses atomic stores.
func (c *Collector) SetPublish(fn func(cycle, ps int64)) {
	c.mu.Lock()
	c.publish = fn
	c.mu.Unlock()
}

// Collect takes one snapshot at the given central cycle and simulated time.
// Called from the simulation run loop at safe boundaries only — after a
// fully committed instant — so every value it reads is the committed state
// at that cycle. Allocation-free.
func (c *Collector) Collect(cycle, ps int64) {
	c.mu.Lock()
	r := &c.rows[c.head]
	c.head++
	if c.head == len(c.rows) {
		c.head = 0
	}
	if c.count < len(c.rows) {
		c.count++
	} else {
		c.dropped++
	}
	r.seq = c.seq
	c.seq++
	r.cycle = cycle
	r.ps = ps
	r.wallNS = int64(time.Since(c.start))
	r.issued, r.completed = 0, 0
	for i, in := range c.inits {
		iss, cmp := in.Issued(), in.Completed()
		r.initIssued[i], r.initCompleted[i] = iss, cmp
		r.issued += iss
		r.completed += cmp
	}
	for i, ctr := range c.counters {
		r.counters[i] = ctr.Value()
	}
	for i, g := range c.gauges {
		r.gauges[i] = g.Value()
	}
	pub := c.publish
	c.mu.Unlock()
	if pub != nil {
		pub(cycle, ps)
	}
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// Finish marks the run complete: SSE streams terminate after draining and
// the progress document reports done. Idempotent.
func (c *Collector) Finish() {
	c.mu.Lock()
	c.done = true
	c.mu.Unlock()
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// Done reports whether Finish was called.
func (c *Collector) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// Notify returns the channel signalled (non-blocking, capacity 1) after
// every Collect and at Finish — the streamer's wake-up.
func (c *Collector) Notify() <-chan struct{} { return c.notify }

// Dropped returns how many rows the ring has overwritten before any reader
// drained them past the ring capacity.
func (c *Collector) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Seq returns the total number of snapshots collected so far.
func (c *Collector) Seq() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// record builds the exported form of ring slot i (reader side; allocates).
// Caller holds mu.
func (c *Collector) record(r *row) Record {
	rec := Record{
		Schema:     Schema,
		Seq:        r.seq,
		Cycle:      r.cycle,
		TimePS:     r.ps,
		Issued:     r.issued,
		Completed:  r.completed,
		Initiators: make([]InitiatorRecord, len(c.inits)),
		Counters:   make([]metrics.CounterValue, len(c.counters)),
		Gauges:     make([]metrics.GaugeValue, len(c.gauges)),
		WallNS:     r.wallNS,
	}
	for i := range c.inits {
		rec.Initiators[i] = InitiatorRecord{
			Name:        c.initNames[i],
			Issued:      r.initIssued[i],
			Completed:   r.initCompleted[i],
			Outstanding: r.initIssued[i] - r.initCompleted[i],
		}
	}
	for i, ctr := range c.counters {
		rec.Counters[i] = metrics.CounterValue{Name: ctr.Name(), Value: r.counters[i]}
	}
	for i, g := range c.gauges {
		rec.Gauges[i] = metrics.GaugeValue{Name: g.Name(), Clock: c.gaugeClks[i], Value: r.gauges[i]}
	}
	return rec
}

// rowAt returns the ring slot holding sequence number seq, or nil when it
// has been overwritten or not collected yet. Caller holds mu.
func (c *Collector) rowAt(seq int64) *row {
	oldest := c.seq - int64(c.count)
	if seq < oldest || seq >= c.seq {
		return nil
	}
	// The ring slot of the newest row is head-1; walking back from it,
	// sequence numbers decrease by one per slot.
	idx := c.head - 1 - int(c.seq-1-seq)
	for idx < 0 {
		idx += len(c.rows)
	}
	return &c.rows[idx]
}

// Drain returns every surviving record with sequence number >= cursor, in
// order, plus the cursor for the next call. Records older than the ring
// capacity are lost (counted by Dropped); the caller detects the gap by the
// first record's Seq exceeding its cursor.
func (c *Collector) Drain(cursor int64) ([]Record, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	oldest := c.seq - int64(c.count)
	if cursor < oldest {
		cursor = oldest
	}
	if cursor >= c.seq {
		return nil, c.seq
	}
	recs := make([]Record, 0, c.seq-cursor)
	for s := cursor; s < c.seq; s++ {
		recs = append(recs, c.record(c.rowAt(s)))
	}
	return recs, c.seq
}

// Latest returns the newest record, if any snapshot has been collected.
func (c *Collector) Latest() (Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count == 0 {
		return Record{}, false
	}
	return c.record(c.rowAt(c.seq - 1)), true
}

// latestPair returns the two newest records (prev may be invalid when only
// one snapshot exists) for rate derivation.
func (c *Collector) latestPair() (last, prev Record, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count == 0 {
		return Record{}, Record{}, 0
	}
	last = c.record(c.rowAt(c.seq - 1))
	if c.count == 1 {
		return last, Record{}, 1
	}
	return last, c.record(c.rowAt(c.seq - 2)), 2
}

// status snapshots the run-shape fields under the mutex.
func (c *Collector) status() (budgetPS int64, done bool, wall time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budgetPS, c.done, time.Since(c.start)
}
