// Package stats provides the measurement infrastructure of the virtual
// platform: latency histograms, windowed phase trackers (used to reproduce
// the two-regime LMI interface analysis of the paper's Fig.6), and aligned
// table formatting for the experiment harness.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Histogram accumulates integer samples (e.g. transaction latencies in
// cycles) into power-of-two buckets plus exact running moments.
type Histogram struct {
	counts [64]int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

// Add records one sample. Negative samples are clamped to zero.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.counts[bucketOf(v)]++
}

func bucketOf(v int64) int {
	b := 0
	for v > 0 {
		v >>= 1
		b++
	}
	if b >= 64 {
		b = 63
	}
	return b
}

// N returns the sample count.
func (h *Histogram) N() int64 { return h.n }

// Sum returns the total of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest sample.
func (h *Histogram) Max() int64 { return h.max }

// Quantile estimates the q-quantile (0 < q <= 1) by locating the power-of-
// two bucket holding the target rank and interpolating linearly within it,
// so the estimate tracks the sample distribution instead of snapping to the
// bucket's upper bound (which over-reports by up to 2x at p50). The result
// is clamped into [Min, Max] and is monotonically non-decreasing in q.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var acc int64
	for b, c := range h.counts {
		acc += c
		if acc < target {
			continue
		}
		if b == 0 {
			return 0
		}
		// Bucket b holds samples in [2^(b-1), 2^b - 1]. rank is the
		// target's 1-based position inside this bucket's c samples;
		// interpolate assuming they spread uniformly across the range.
		lo := int64(1) << uint(b-1)
		hi := int64(1)<<uint(b) - 1
		rank := target - (acc - c)
		v := lo + (hi-lo)*rank/c
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f min=%d max=%d p50<=%d p90<=%d",
		h.n, h.Mean(), h.min, h.max, h.Quantile(0.5), h.Quantile(0.9))
}

// PhaseTracker classifies every cycle into one named state and accumulates
// per-window counts, so execution phases with different traffic regimes can
// be told apart (paper Fig.6: FIFO full / storing / no-request fractions per
// working regime).
type PhaseTracker struct {
	states     []string
	index      map[string]int
	windowSize int64

	cycle int64
	// left counts down the cycles until the current window closes.
	left    int64
	current []int64
	windows []Window
	total   []int64
	// arena is preallocated count storage carved up by roll(), so closing
	// a window does not allocate on the observation hot path. Windows keep
	// pointing into exhausted chunks, so growing the arena never moves
	// completed windows.
	arena []int64
}

// arenaWindows is the number of windows' worth of count storage allocated
// per arena chunk.
const arenaWindows = 128

// Window is one completed observation window.
type Window struct {
	StartCycle int64
	Cycles     int64
	Counts     []int64
}

// NewPhaseTracker builds a tracker over the given state names with the given
// window size in cycles.
func NewPhaseTracker(windowSize int64, states ...string) *PhaseTracker {
	if windowSize <= 0 {
		panic("stats: window size must be positive")
	}
	idx := make(map[string]int, len(states))
	for i, s := range states {
		idx[s] = i
	}
	return &PhaseTracker{
		states:     states,
		index:      idx,
		windowSize: windowSize,
		left:       windowSize,
		current:    make([]int64, len(states)),
		total:      make([]int64, len(states)),
		windows:    make([]Window, 0, arenaWindows),
		arena:      make([]int64, arenaWindows*len(states)),
	}
}

// Observe records the state of one cycle. Unknown states panic (modelling
// bug).
func (p *PhaseTracker) Observe(state string) {
	i, ok := p.index[state]
	if !ok {
		panic(fmt.Sprintf("stats: unknown state %q", state))
	}
	p.ObserveIndex(i)
}

// ObserveIndex records the state of one cycle by its position in the state
// list given to NewPhaseTracker: Observe without the name lookup, for
// per-cycle callers.
func (p *PhaseTracker) ObserveIndex(i int) {
	p.current[i]++
	p.total[i]++
	p.cycle++
	if p.left--; p.left == 0 {
		p.roll()
		p.left = p.windowSize
	}
}

func (p *PhaseTracker) roll() {
	ns := len(p.current)
	if len(p.arena) < ns {
		p.arena = make([]int64, arenaWindows*ns)
	}
	counts := p.arena[:ns:ns]
	p.arena = p.arena[ns:]
	copy(counts, p.current)
	p.windows = append(p.windows, Window{
		StartCycle: p.cycle - p.windowSize,
		Cycles:     p.windowSize,
		Counts:     counts,
	})
	for i := range p.current {
		p.current[i] = 0
	}
}

// States returns the tracked state names.
func (p *PhaseTracker) States() []string { return p.states }

// Cycles returns the total observed cycles.
func (p *PhaseTracker) Cycles() int64 { return p.cycle }

// Windows returns all completed windows.
func (p *PhaseTracker) Windows() []Window { return p.windows }

// TotalCount returns the lifetime number of cycles spent in state.
func (p *PhaseTracker) TotalCount(state string) int64 {
	i, ok := p.index[state]
	if !ok {
		return 0
	}
	return p.total[i]
}

// TotalFrac returns the lifetime fraction of cycles spent in state.
func (p *PhaseTracker) TotalFrac(state string) float64 {
	i, ok := p.index[state]
	if !ok || p.cycle == 0 {
		return 0
	}
	return float64(p.total[i]) / float64(p.cycle)
}

// Frac returns the fraction of window w spent in state.
func (w Window) Frac(tracker *PhaseTracker, state string) float64 {
	i, ok := tracker.index[state]
	if !ok || w.Cycles == 0 {
		return 0
	}
	return float64(w.Counts[i]) / float64(w.Cycles)
}

// Table accumulates rows and writes them with aligned columns — the output
// format of the experiment harness.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Write renders the table.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.header); err != nil {
		return err
	}
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// Normalize scales a slice of values by its first element, the convention of
// the paper's "normalized execution time" figures.
func Normalize(values []float64) []float64 {
	out := make([]float64, len(values))
	if len(values) == 0 || values[0] == 0 {
		return out
	}
	for i, v := range values {
		out[i] = v / values[0]
	}
	return out
}

// ArgMin returns the index of the smallest value (-1 when empty).
func ArgMin(values []float64) int {
	if len(values) == 0 {
		return -1
	}
	best := 0
	for i, v := range values {
		if v < values[best] {
			best = i
		}
	}
	return best
}

// SortedKeys returns the sorted keys of a string-keyed map, for
// deterministic iteration in reports.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
