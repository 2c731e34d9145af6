package lmi

import (
	"mpsocsim/internal/bus"
	"mpsocsim/internal/stats"
)

// Monitor observes the bus-interface input FIFO cycle by cycle and
// reproduces the statistics of the paper's Fig.6. Each cycle is classified
// into exactly one of three states:
//
//	full      — the FIFO cannot store a new transaction,
//	storing   — the interface is storing at least one new request,
//	norequest — the FIFO has room but no request arrived (request signal
//	            low while grant is high).
//
// Empty cycles are tracked independently (an empty FIFO is usually also a
// no-request cycle) because the paper reads the empty fraction as a
// burstiness indicator.
type Monitor struct {
	phases *stats.PhaseTracker
	empty  *stats.PhaseTracker
}

// Monitor state names.
const (
	StateFull      = "full"
	StateStoring   = "storing"
	StateNoRequest = "norequest"

	stateEmpty    = "empty"
	stateNonEmpty = "nonempty"
)

// Positions of the states in the trackers' state lists (see newMonitor),
// which sample observes by index.
const (
	idxFull = iota
	idxStoring
	idxNoRequest
)

const (
	idxEmpty = iota
	idxNonEmpty
)

func newMonitor(window int64) *Monitor {
	return &Monitor{
		phases: stats.NewPhaseTracker(window, StateFull, StateStoring, StateNoRequest),
		empty:  stats.NewPhaseTracker(window, stateEmpty, stateNonEmpty),
	}
}

// sample classifies the current cycle; the controller calls it from Update,
// when this cycle's staged pushes are still observable.
func (m *Monitor) sample(q *bus.Queue) {
	switch {
	case q.Len() >= q.Depth():
		m.phases.ObserveIndex(idxFull)
	case q.Staged() > 0:
		m.phases.ObserveIndex(idxStoring)
	default:
		m.phases.ObserveIndex(idxNoRequest)
	}
	if q.Len() == 0 {
		m.empty.ObserveIndex(idxEmpty)
	} else {
		m.empty.ObserveIndex(idxNonEmpty)
	}
}

// TotalFrac returns the lifetime fraction of cycles in the given state
// (StateFull, StateStoring or StateNoRequest).
func (m *Monitor) TotalFrac(state string) float64 { return m.phases.TotalFrac(state) }

// EmptyFrac returns the lifetime fraction of cycles with an empty FIFO.
func (m *Monitor) EmptyFrac() float64 { return m.empty.TotalFrac(stateEmpty) }

// Cycles returns the number of observed cycles.
func (m *Monitor) Cycles() int64 { return m.phases.Cycles() }

// WindowReport is one observation window's Fig.6 row.
type WindowReport struct {
	StartCycle    int64
	FullFrac      float64
	StoringFrac   float64
	NoRequestFrac float64
	EmptyFrac     float64
}

// Windows returns the per-window Fig.6 fractions.
func (m *Monitor) Windows() []WindowReport {
	pw := m.phases.Windows()
	ew := m.empty.Windows()
	n := len(pw)
	if len(ew) < n {
		n = len(ew)
	}
	out := make([]WindowReport, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, WindowReport{
			StartCycle:    pw[i].StartCycle,
			FullFrac:      pw[i].Frac(m.phases, StateFull),
			StoringFrac:   pw[i].Frac(m.phases, StateStoring),
			NoRequestFrac: pw[i].Frac(m.phases, StateNoRequest),
			EmptyFrac:     ew[i].Frac(m.empty, stateEmpty),
		})
	}
	return out
}

// Phase aggregates the windows whose start cycle lies in [from, to) into a
// single report — how the paper summarizes each working regime.
func (m *Monitor) Phase(from, to int64) WindowReport {
	var agg WindowReport
	var n float64
	for _, w := range m.Windows() {
		if w.StartCycle < from || w.StartCycle >= to {
			continue
		}
		agg.FullFrac += w.FullFrac
		agg.StoringFrac += w.StoringFrac
		agg.NoRequestFrac += w.NoRequestFrac
		agg.EmptyFrac += w.EmptyFrac
		n++
	}
	if n > 0 {
		agg.FullFrac /= n
		agg.StoringFrac /= n
		agg.NoRequestFrac /= n
		agg.EmptyFrac /= n
	}
	agg.StartCycle = from
	return agg
}
