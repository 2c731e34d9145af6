// Package trace provides the waveform inspection channel of the virtual
// platform: a signal sampler that dumps cycle-stamped series as CSV or VCD
// (the role RTL waveform inspection played in the paper's
// reverse-engineering workflow).
package trace

import (
	"fmt"
	"io"
	"sort"
)

// Sampler collects named integer signals over time (e.g. FIFO occupancy per
// cycle) and emits an aligned CSV with one column per signal.
type Sampler struct {
	series map[string][]point
	limit  int
}

type point struct {
	t int64
	v int64
}

// NewSampler returns a sampler capped at limit points per signal.
func NewSampler(limit int) *Sampler {
	if limit <= 0 {
		limit = 1 << 20
	}
	return &Sampler{series: map[string][]point{}, limit: limit}
}

// Sample records signal=value at time t.
func (s *Sampler) Sample(t int64, signal string, value int64) {
	pts := s.series[signal]
	if len(pts) >= s.limit {
		return
	}
	s.series[signal] = append(pts, point{t: t, v: value})
}

// Signals returns the sorted signal names.
func (s *Sampler) Signals() []string {
	names := make([]string, 0, len(s.series))
	for n := range s.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteCSV emits "time,sig1,sig2,..." rows at every sampled instant, holding
// the previous value for signals not sampled at that instant.
func (s *Sampler) WriteCSV(w io.Writer) error {
	names := s.Signals()
	if len(names) == 0 {
		return nil
	}
	times := map[int64]bool{}
	for _, pts := range s.series {
		for _, p := range pts {
			times[p.t] = true
		}
	}
	sorted := make([]int64, 0, len(times))
	for t := range times {
		sorted = append(sorted, t)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	if _, err := fmt.Fprint(w, "time"); err != nil {
		return err
	}
	for _, n := range names {
		if _, err := fmt.Fprintf(w, ",%s", n); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	idx := make([]int, len(names))
	last := make([]int64, len(names))
	for _, t := range sorted {
		if _, err := fmt.Fprintf(w, "%d", t); err != nil {
			return err
		}
		for i, n := range names {
			pts := s.series[n]
			for idx[i] < len(pts) && pts[idx[i]].t <= t {
				last[i] = pts[idx[i]].v
				idx[i]++
			}
			if _, err := fmt.Fprintf(w, ",%d", last[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
