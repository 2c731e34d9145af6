// Package metrics is the platform-wide instrument registry: named counters,
// gauges and latency histograms that components register at build time. The
// paper's contribution is *measurement* — the interaction of the
// communication, memory and I/O subsystems is only visible when every
// arbiter, bridge, memory controller and cache exposes its cycle-level
// state — so the registry generalizes the one-off LMI bus-interface monitor
// onto every node of the platform. Periodic sampling of the instruments is
// the telemetry collector's job (internal/telemetry); this package only
// holds and snapshots them.
//
// Design constraints, in priority order:
//
//  1. Zero allocations on the observation hot path. Counters and gauges are
//     plain int64 cells (or read-on-demand closures over component state);
//     histograms are stats.Histogram values registered by pointer. The
//     steady-state zero-allocation invariant (TestZeroAllocSteadyState)
//     holds with the full registry attached.
//  2. Deterministic enumeration. Instruments snapshot in registration
//     order, and platform builds register components in a fixed order, so
//     two identical runs produce byte-identical reports.
//  3. Post-run export off the hot path. Snapshot() copies every instrument
//     into a plain, JSON-marshalable value; the JSON run report and the
//     text tables render from the snapshot.
package metrics

import (
	"fmt"

	"mpsocsim/internal/stats"
)

// Counter is a monotonically increasing count (grants, stall cycles,
// retries). A counter either owns its cell (written through Add/Inc on the
// hot path) or reads a component's existing field through a closure at
// snapshot time — the latter keeps already-instrumented hot paths untouched.
type Counter struct {
	name string
	v    int64
	fn   func() int64
}

// Name returns the instrument name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by d. Hot-path safe: no allocation, no lock (a
// platform is stepped from a single goroutine).
func (c *Counter) Add(d int64) { c.v += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c.fn != nil {
		return c.fn()
	}
	return c.v
}

// Gauge is an instantaneous level (queue depth, outstanding occupancy,
// FIFO fill). Gauges carry the name of the clock domain they are meaningful
// in; the telemetry collector samples them into its records.
type Gauge struct {
	name  string
	clock string
	v     int64
	fn    func() int64
}

// Name returns the instrument name.
func (g *Gauge) Name() string { return g.name }

// Clock returns the clock-domain name the gauge belongs to.
func (g *Gauge) Clock() string { return g.clock }

// Set stores the current level. Hot-path safe.
func (g *Gauge) Set(v int64) { g.v = v }

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g.fn != nil {
		return g.fn()
	}
	return g.v
}

// Histogram is a registered latency distribution. The registry holds a
// pointer to the component's own stats.Histogram, so components keep their
// existing Add call sites and the registry adds no observation cost at all.
type Histogram struct {
	name string
	h    *stats.Histogram
}

// Name returns the instrument name.
func (h *Histogram) Name() string { return h.name }

// Registry holds every instrument of one platform instance. It is not safe
// for concurrent use; a platform is built and stepped from one goroutine.
type Registry struct {
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	names    map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]struct{}{}}
}

// claim panics on duplicate instrument names: two components registering the
// same name is a wiring bug that would silently merge unrelated series.
func (r *Registry) claim(name string) {
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate instrument %q", name))
	}
	r.names[name] = struct{}{}
}

// Counter registers and returns an owned counter.
func (r *Registry) Counter(name string) *Counter {
	r.claim(name)
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// CounterFunc registers a counter that reads fn at snapshot time — the
// zero-overhead way to expose a count the component already maintains.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.claim(name)
	r.counters = append(r.counters, &Counter{name: name, fn: fn})
}

// Gauge registers and returns an owned gauge on the named clock domain.
func (r *Registry) Gauge(name, clock string) *Gauge {
	r.claim(name)
	g := &Gauge{name: name, clock: clock}
	r.gauges = append(r.gauges, g)
	return g
}

// GaugeFunc registers a gauge that reads fn when sampled or snapshot.
func (r *Registry) GaugeFunc(name, clock string, fn func() int64) {
	r.claim(name)
	r.gauges = append(r.gauges, &Gauge{name: name, clock: clock, fn: fn})
}

// Histogram registers an existing histogram under the given name.
func (r *Registry) Histogram(name string, h *stats.Histogram) {
	r.claim(name)
	r.hists = append(r.hists, &Histogram{name: name, h: h})
}

// Counters returns the registered counters in registration order.
func (r *Registry) Counters() []*Counter { return r.counters }

// Gauges returns the registered gauges in registration order.
func (r *Registry) Gauges() []*Gauge { return r.gauges }

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge's final-level snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Clock string `json:"clock"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram's snapshot: the summary statistics the
// reports print, plus a value copy of the histogram itself so later
// consumers can re-derive any quantile.
type HistogramValue struct {
	Name string  `json:"name"`
	N    int64   `json:"n"`
	Sum  int64   `json:"sum"`
	Mean float64 `json:"mean"`
	Min  int64   `json:"min"`
	Max  int64   `json:"max"`
	P50  int64   `json:"p50"`
	P90  int64   `json:"p90"`
	P99  int64   `json:"p99"`

	hist stats.Histogram
}

// Quantile re-derives an arbitrary quantile from the snapshot copy.
func (h *HistogramValue) Quantile(q float64) int64 { return h.hist.Quantile(q) }

// Snapshot is a point-in-time copy of every instrument, detached from the
// live components so it stays valid after the platform is gone.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot copies the current value of every instrument.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   make([]CounterValue, 0, len(r.counters)),
		Gauges:     make([]GaugeValue, 0, len(r.gauges)),
		Histograms: make([]HistogramValue, 0, len(r.hists)),
	}
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: c.name, Value: c.Value()})
	}
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: g.name, Clock: g.clock, Value: g.Value()})
	}
	for _, h := range r.hists {
		s.Histograms = append(s.Histograms, HistogramValue{
			Name: h.name,
			N:    h.h.N(),
			Sum:  h.h.Sum(),
			Mean: h.h.Mean(),
			Min:  h.h.Min(),
			Max:  h.h.Max(),
			P50:  h.h.Quantile(0.5),
			P90:  h.h.Quantile(0.9),
			P99:  h.h.Quantile(0.99),
			hist: *h.h,
		})
	}
	return s
}

// Counter returns the named counter's value, and whether it exists.
func (s *Snapshot) Counter(name string) (int64, bool) {
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			return s.Counters[i].Value, true
		}
	}
	return 0, false
}

// MustCounter returns the named counter's value or panics — for report
// rendering paths where a missing instrument is a wiring bug.
func (s *Snapshot) MustCounter(name string) int64 {
	v, ok := s.Counter(name)
	if !ok {
		panic(fmt.Sprintf("metrics: snapshot has no counter %q", name))
	}
	return v
}

// Histogram returns the named histogram snapshot, or nil.
func (s *Snapshot) Histogram(name string) *HistogramValue {
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}

// DiffCounters returns cur - prev for every counter that moved, preserving
// cur's order. The fast path assumes both slices enumerate the same
// instruments in the same order (registration order is fixed per Build);
// when the shapes differ — snapshots of different platforms — prev is
// matched by name and unmatched counters diff against zero. The telemetry
// layer derives counter rates from consecutive snapshots with it, and the
// stall forensics use it to show what still moved in the last watchdog
// window.
func DiffCounters(cur, prev []CounterValue) []CounterValue {
	aligned := len(cur) == len(prev)
	if aligned {
		for i := range cur {
			if cur[i].Name != prev[i].Name {
				aligned = false
				break
			}
		}
	}
	var byName map[string]int64
	if !aligned {
		byName = make(map[string]int64, len(prev))
		for _, p := range prev {
			byName[p.Name] = p.Value
		}
	}
	var out []CounterValue
	for i := range cur {
		var base int64
		if aligned {
			base = prev[i].Value
		} else {
			base = byName[cur[i].Name]
		}
		if d := cur[i].Value - base; d != 0 {
			out = append(out, CounterValue{Name: cur[i].Name, Value: d})
		}
	}
	return out
}

// DeltaCounters returns the counters that moved between prev and s (s -
// prev), in s's enumeration order.
func (s *Snapshot) DeltaCounters(prev *Snapshot) []CounterValue {
	return DiffCounters(s.Counters, prev.Counters)
}

// Gauge returns the named gauge's final level, and whether it exists.
func (s *Snapshot) Gauge(name string) (int64, bool) {
	for i := range s.Gauges {
		if s.Gauges[i].Name == name {
			return s.Gauges[i].Value, true
		}
	}
	return 0, false
}
