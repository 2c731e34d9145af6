package stats

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mpsocsim/internal/snapshot"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 4, 5} {
		h.Add(v)
	}
	if h.N() != 5 {
		t.Fatalf("n = %d", h.N())
	}
	if h.Sum() != 15 {
		t.Fatalf("sum = %d", h.Sum())
	}
	if h.Mean() != 3 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Add(-5)
	if h.Min() != 0 {
		t.Fatalf("negative sample not clamped: min=%d", h.Min())
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	var h Histogram
	for i := int64(0); i < 1000; i++ {
		h.Add(i)
	}
	q50, q90, q99 := h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)
	if q50 > q90 || q90 > q99 {
		t.Fatalf("quantiles not monotonic: %d %d %d", q50, q90, q99)
	}
	// With linear interpolation inside the bucket, the estimates must land
	// near the exact order statistics of the uniform sample (true p50 is
	// 499, p90 is 899, p99 is 989), not at the bucket's power-of-two upper
	// bound (which would report 511 / 1023 / 1023).
	if q50 < 480 || q50 > 520 {
		t.Fatalf("p50 = %d, want within [480, 520] of true median 499", q50)
	}
	if q90 < 870 || q90 > 930 {
		t.Fatalf("p90 = %d, want within [870, 930] of true p90 899", q90)
	}
	if q99 < 960 || q99 > 999 {
		t.Fatalf("p99 = %d, want within [960, 999] of true p99 989", q99)
	}
	if got := h.Quantile(1.0); got != h.Max() {
		t.Fatalf("p100 = %d, want max %d", got, h.Max())
	}
	if h.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestHistogramQuantileClamped pins the interpolation's clamping: a single-
// value histogram must report that value at every quantile instead of the
// bucket's upper bound.
func TestHistogramQuantileClamped(t *testing.T) {
	var h Histogram
	h.Add(1000) // bucket [512, 1023]
	for _, q := range []float64{0.01, 0.5, 0.99, 1.0} {
		if got := h.Quantile(q); got != 1000 {
			t.Fatalf("Quantile(%v) = %d, want 1000", q, got)
		}
	}
}

// Property: quantile upper bound always >= exact value implied by samples
// below it, and Add never loses samples.
func TestHistogramPropertyCount(t *testing.T) {
	prop := func(vals []int16) bool {
		var h Histogram
		for _, v := range vals {
			h.Add(int64(v))
		}
		return h.N() == int64(len(vals))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseTrackerWindows(t *testing.T) {
	p := NewPhaseTracker(10, "full", "storing", "norequest")
	for i := 0; i < 10; i++ {
		p.Observe("full")
	}
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			p.Observe("storing")
		} else {
			p.Observe("norequest")
		}
	}
	ws := p.Windows()
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2", len(ws))
	}
	if got := ws[0].Frac(p, "full"); got != 1.0 {
		t.Fatalf("window 0 full frac = %v", got)
	}
	if got := ws[1].Frac(p, "storing"); got != 0.5 {
		t.Fatalf("window 1 storing frac = %v", got)
	}
	if got := p.TotalFrac("full"); got != 0.5 {
		t.Fatalf("total full frac = %v", got)
	}
	if p.Cycles() != 20 {
		t.Fatalf("cycles = %d", p.Cycles())
	}
	if len(p.States()) != 3 {
		t.Fatal("states lost")
	}
}

// TestPhaseTrackerObserveIndexMatchesObserve requires observing by index
// and by name to leave identical counts, windows and snapshot bytes.
func TestPhaseTrackerObserveIndexMatchesObserve(t *testing.T) {
	states := []string{"full", "storing", "norequest"}
	byName := NewPhaseTracker(7, states...)
	byIndex := NewPhaseTracker(7, states...)
	for c := 0; c < 100; c++ {
		i := (c * c) % 3
		byName.Observe(states[i])
		byIndex.ObserveIndex(i)
	}
	if !reflect.DeepEqual(byName.Windows(), byIndex.Windows()) || byName.Cycles() != byIndex.Cycles() {
		t.Fatal("windows differ")
	}
	for _, st := range states {
		if byName.TotalCount(st) != byIndex.TotalCount(st) {
			t.Fatalf("%s: %d by name, %d by index", st, byName.TotalCount(st), byIndex.TotalCount(st))
		}
	}
	a, b := snapshot.NewEncoder(), snapshot.NewEncoder()
	byName.EncodeState(a)
	byIndex.EncodeState(b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot bytes differ")
	}
}

// TestPhaseTrackerResumesMidWindow restores a tracker snapshotted inside a
// window and requires it to close that window, and every later one, at the
// same cycle as the tracker it was taken from; and rejects a snapshot with a
// negative cycle count.
func TestPhaseTrackerResumesMidWindow(t *testing.T) {
	states := []string{"full", "storing", "norequest"}
	orig := NewPhaseTracker(7, states...)
	for c := 0; c < 40; c++ {
		orig.ObserveIndex(c % 3)
	}
	e := snapshot.NewEncoder()
	orig.EncodeState(e)
	d, err := snapshot.NewDecoder(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	restored := NewPhaseTracker(7, states...)
	restored.DecodeState(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	for c := 40; c < 100; c++ {
		orig.ObserveIndex(c % 3)
		restored.ObserveIndex(c % 3)
		if len(orig.Windows()) != len(restored.Windows()) {
			t.Fatalf("cycle %d: %d windows closed, restored tracker %d", c, len(orig.Windows()), len(restored.Windows()))
		}
	}
	if !reflect.DeepEqual(orig.Windows(), restored.Windows()) {
		t.Fatal("windows differ")
	}

	e = snapshot.NewEncoder()
	e.Tag('P')
	e.U(uint64(len(states)))
	e.I(7)
	e.I(-3)
	d, err = snapshot.NewDecoder(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	NewPhaseTracker(7, states...).DecodeState(d)
	if !errors.Is(d.Err(), snapshot.ErrCorrupt) {
		t.Fatalf("negative cycle count decoded with error %v, want ErrCorrupt", d.Err())
	}
}

func TestPhaseTrackerUnknownStatePanics(t *testing.T) {
	p := NewPhaseTracker(10, "a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Observe("b")
}

func TestPhaseTrackerBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPhaseTracker(0, "a")
}

func TestTableFormatting(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22", "dropped-extra")
	var sb strings.Builder
	if err := tb.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[3], "22") {
		t.Fatalf("rows wrong:\n%s", out)
	}
	if strings.Contains(out, "dropped-extra") {
		t.Fatal("extra cell should be dropped")
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{4, 8, 2})
	want := []float64{1, 2, 0.5}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("normalize = %v", out)
		}
	}
	if got := Normalize(nil); len(got) != 0 {
		t.Fatal("nil normalize")
	}
	if got := Normalize([]float64{0, 5}); got[0] != 0 || got[1] != 0 {
		t.Fatal("zero-base normalize must return zeros")
	}
}

func TestArgMin(t *testing.T) {
	if ArgMin([]float64{3, 1, 2}) != 1 {
		t.Fatal("argmin wrong")
	}
	if ArgMin(nil) != -1 {
		t.Fatal("empty argmin")
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	keys := SortedKeys(m)
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Fatalf("keys = %v", keys)
	}
}
