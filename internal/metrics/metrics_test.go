package metrics

import (
	"testing"

	"mpsocsim/internal/stats"
)

func TestCounterOwnedAndFunc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.grants")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("owned counter = %d, want 5", got)
	}
	var backing int64 = 7
	r.CounterFunc("a.stalls", func() int64 { return backing })
	snap := r.Snapshot()
	if v := snap.MustCounter("a.grants"); v != 5 {
		t.Fatalf("snapshot grants = %d, want 5", v)
	}
	if v := snap.MustCounter("a.stalls"); v != 7 {
		t.Fatalf("snapshot stalls = %d, want 7", v)
	}
	// The snapshot is detached: later component changes don't leak in.
	backing = 100
	if v := snap.MustCounter("a.stalls"); v != 7 {
		t.Fatalf("snapshot not detached: stalls = %d, want 7", v)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("x", "central")
}

func TestHistogramSnapshotQuantiles(t *testing.T) {
	var h stats.Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Add(v)
	}
	r := NewRegistry()
	r.Histogram("lat", &h)
	snap := r.Snapshot()
	hv := snap.Histogram("lat")
	if hv == nil {
		t.Fatal("histogram missing from snapshot")
	}
	if hv.N != 1000 || hv.Min != 1 || hv.Max != 1000 {
		t.Fatalf("summary = {N:%d Min:%d Max:%d}, want {1000 1 1000}", hv.N, hv.Min, hv.Max)
	}
	if hv.P50 != h.Quantile(0.5) || hv.P90 != h.Quantile(0.9) {
		t.Fatal("snapshot quantiles disagree with source histogram")
	}
	// Arbitrary quantiles re-derive from the embedded copy.
	if got, want := hv.Quantile(0.99), h.Quantile(0.99); got != want {
		t.Fatalf("Quantile(0.99) = %d, want %d", got, want)
	}
}

func TestDiffCountersAligned(t *testing.T) {
	prev := []CounterValue{{Name: "a", Value: 10}, {Name: "b", Value: 20}, {Name: "c", Value: 5}}
	cur := []CounterValue{{Name: "a", Value: 10}, {Name: "b", Value: 27}, {Name: "c", Value: 6}}
	got := DiffCounters(cur, prev)
	if len(got) != 2 {
		t.Fatalf("got %d deltas, want 2 (unchanged counters dropped)", len(got))
	}
	if got[0].Name != "b" || got[0].Value != 7 || got[1].Name != "c" || got[1].Value != 1 {
		t.Fatalf("deltas = %+v", got)
	}
}

func TestDiffCountersMisaligned(t *testing.T) {
	// prev is shorter and differently ordered: the name-map fallback must
	// treat missing baselines as zero and still emit deltas in cur order.
	prev := []CounterValue{{Name: "b", Value: 20}}
	cur := []CounterValue{{Name: "a", Value: 3}, {Name: "b", Value: 20}, {Name: "c", Value: 4}}
	got := DiffCounters(cur, prev)
	if len(got) != 2 {
		t.Fatalf("got %d deltas, want 2", len(got))
	}
	if got[0].Name != "a" || got[0].Value != 3 || got[1].Name != "c" || got[1].Value != 4 {
		t.Fatalf("deltas = %+v", got)
	}
}

func TestSnapshotDeltaCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("grants")
	c.Add(5)
	before := r.Snapshot()
	c.Add(3)
	got := r.Snapshot().DeltaCounters(before)
	if len(got) != 1 || got[0].Name != "grants" || got[0].Value != 3 {
		t.Fatalf("delta = %+v", got)
	}
}
