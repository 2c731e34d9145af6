package platform

import "mpsocsim/internal/metrics"

// ObservableState is the externally visible state of a paused platform: the
// central-clock cycle plus every registered counter and gauge, read in
// registration order. It is the same instrument set a telemetry record
// carries, which makes it the natural equality domain for cross-variant
// divergence searches (internal/diff): two runs whose observable state
// matches at a cycle are indistinguishable to every artifact the simulator
// emits at that cycle.
//
// Histograms are deliberately excluded — they summarize the path taken,
// not the state reached, so two runs can hold identical machine state while
// their distributions differ in bucket order only.
type ObservableState struct {
	Cycle    int64
	TimePS   int64
	Counters []metrics.CounterValue
	Gauges   []metrics.GaugeValue
}

// Observable captures the platform's current observable state. It reads
// live instruments and is valid at any paused instant — between Run calls,
// at a RunToCycle pause, or after the run drains. Allocates; not for the
// per-cycle hot path.
func (p *Platform) Observable() ObservableState {
	p.Kernel.Settle()
	st := ObservableState{
		Cycle:  p.CentralClk.Cycles(),
		TimePS: p.Kernel.Now(),
	}
	ctrs := p.Metrics.Counters()
	st.Counters = make([]metrics.CounterValue, len(ctrs))
	for i, c := range ctrs {
		st.Counters[i] = metrics.CounterValue{Name: c.Name(), Value: c.Value()}
	}
	gags := p.Metrics.Gauges()
	st.Gauges = make([]metrics.GaugeValue, len(gags))
	for i, g := range gags {
		st.Gauges[i] = metrics.GaugeValue{Name: g.Name(), Clock: g.Clock(), Value: g.Value()}
	}
	return st
}
