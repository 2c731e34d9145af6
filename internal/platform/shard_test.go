package platform

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mpsocsim/internal/tracecap"
)

// shardCounts is the conformance-matrix shard axis: serial-degenerate, two
// and four shards, plus whatever the host offers.
func shardCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// shardVariants are the observability configurations the equivalence contract
// covers. Each prepares a freshly built platform and returns the capture
// session when one was attached (so the recorded trace bytes join the
// comparison).
var shardVariants = []struct {
	name string
	prep func(p *Platform) *tracecap.Capture
}{
	{"plain", func(p *Platform) *tracecap.Capture { return nil }},
	{"attr", func(p *Platform) *tracecap.Capture {
		p.EnableAttribution(0)
		return nil
	}},
	{"timelines", func(p *Platform) *tracecap.Capture {
		p.EnableTimelines(50, 0)
		return nil
	}},
	{"capture", func(p *Platform) *tracecap.Capture {
		c := tracecap.NewCapture(p.Spec.Name(), 0)
		p.AttachCapture(c)
		return c
	}},
}

// shardRun builds spec, applies prep, shards the platform into n and runs it.
// It returns the Result, the rendered JSON report and summary bytes, and the
// encoded captured trace (nil when the variant doesn't capture).
func shardRun(t *testing.T, spec Spec, shards int, prep func(*Platform) *tracecap.Capture) (Result, []byte, []byte) {
	t.Helper()
	p := MustBuild(spec)
	c := prep(p)
	if shards > 1 {
		if err := p.EnableSharding(shards); err != nil {
			t.Fatalf("EnableSharding(%d): %v", shards, err)
		}
	}
	r := p.Run(5e12)
	if !r.Done {
		t.Fatalf("%s (shards=%d) did not drain (issued=%d completed=%d)", spec.Name(), shards, r.Issued, r.Completed)
	}
	var rep bytes.Buffer
	if err := r.WriteJSON(&rep); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteSummary(&rep); err != nil {
		t.Fatal(err)
	}
	var tb []byte
	if c != nil {
		var buf bytes.Buffer
		if _, err := c.Trace().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		tb = buf.Bytes()
	}
	return r, rep.Bytes(), tb
}

// TestShardedConformanceMatrix is the serial-equivalence contract: for every
// golden configuration, every observability variant and every shard count,
// the sharded run must be bit-identical to the serial run — the full Result
// (every statistic, histogram, attribution matrix and monitor window), the
// rendered JSON report and text summary, and the captured transaction trace.
func TestShardedConformanceMatrix(t *testing.T) {
	for name, spec := range goldenSpecs() {
		for _, v := range shardVariants {
			ref, refRep, refTrace := shardRun(t, spec, 1, v.prep)
			for _, n := range shardCounts() {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", name, v.name, n), func(t *testing.T) {
					r, rep, tr := shardRun(t, spec, n, v.prep)
					if !reflect.DeepEqual(r, ref) {
						t.Errorf("sharded Result differs from serial (cycles %d vs %d, issued %d vs %d)",
							r.CentralCycles, ref.CentralCycles, r.Issued, ref.Issued)
					}
					if !bytes.Equal(rep, refRep) {
						t.Errorf("sharded report/summary bytes differ from serial (%d vs %d bytes)", len(rep), len(refRep))
					}
					if !bytes.Equal(tr, refTrace) {
						t.Errorf("sharded captured trace differs from serial (%d vs %d bytes)", len(tr), len(refTrace))
					}
				})
			}
		}
	}
}

// TestShardedReplayConformance closes the differential loop: a trace captured
// from a serial run is replayed serially and at every shard count, and all
// replayed runs must agree bit-for-bit.
func TestShardedReplayConformance(t *testing.T) {
	for name, spec := range goldenSpecs() {
		cap := tracecap.NewCapture(spec.Name(), 0)
		p := MustBuild(spec)
		p.AttachCapture(cap)
		if r := p.Run(5e12); !r.Done {
			t.Fatalf("%s capture run did not drain", name)
		}
		rspec := spec
		rspec.Replay = cap.Trace()
		ref, refRep, _ := shardRun(t, rspec, 1, func(*Platform) *tracecap.Capture { return nil })
		for _, n := range shardCounts() {
			t.Run(fmt.Sprintf("%s/shards=%d", name, n), func(t *testing.T) {
				r, rep, _ := shardRun(t, rspec, n, func(*Platform) *tracecap.Capture { return nil })
				if !reflect.DeepEqual(r, ref) {
					t.Errorf("sharded replay Result differs from serial (cycles %d vs %d)", r.CentralCycles, ref.CentralCycles)
				}
				if !bytes.Equal(rep, refRep) {
					t.Errorf("sharded replay report differs from serial")
				}
			})
		}
	}
}

// shardDiff runs spec serially and sharded and describes the first observed
// divergence ("" when equivalent).
func shardDiff(spec Spec, shards int) string {
	run := func(n int) (Result, []byte, error) {
		p, err := Build(spec)
		if err != nil {
			return Result{}, nil, err
		}
		if n > 1 {
			if err := p.EnableSharding(n); err != nil {
				return Result{}, nil, err
			}
		}
		r := p.Run(2e12)
		var rep bytes.Buffer
		if err := r.WriteJSON(&rep); err != nil {
			return Result{}, nil, err
		}
		return r, rep.Bytes(), nil
	}
	ref, refRep, err := run(1)
	if err != nil {
		return fmt.Sprintf("serial run failed: %v", err)
	}
	r, rep, err := run(shards)
	if err != nil {
		return fmt.Sprintf("sharded run failed: %v", err)
	}
	switch {
	case r.Done != ref.Done || r.Stalled != ref.Stalled:
		return fmt.Sprintf("outcome differs: done=%v/%v stalled=%v/%v", r.Done, ref.Done, r.Stalled, ref.Stalled)
	case r.CentralCycles != ref.CentralCycles:
		return fmt.Sprintf("cycle count differs: %d vs %d", r.CentralCycles, ref.CentralCycles)
	case !reflect.DeepEqual(r, ref):
		return "Result differs (same cycle count)"
	case !bytes.Equal(rep, refRep):
		return "report bytes differ (same Result)"
	}
	return ""
}

// shrinkSpec reduces a failing spec one dimension at a time while the failure
// persists, converging on a minimal reproducer.
func shrinkSpec(spec Spec, shards int) Spec {
	return shrinkWhile(spec, func(s Spec) bool { return shardDiff(s, shards) != "" })
}

// TestShardedRandomTopologyProperty fuzzes the equivalence contract over
// seeded random platform specifications. Failures are shrunk to a minimal
// reproducing spec before reporting.
func TestShardedRandomTopologyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED_0006))
	n := 10
	if testing.Short() {
		n = 3
	}
	for i := 0; i < n; i++ {
		spec := randomSpec(rng)
		shards := 2 + rng.Intn(3)
		if diff := shardDiff(spec, shards); diff != "" {
			min := shrinkSpec(spec, shards)
			t.Fatalf("case %d: sharded(%d) diverged from serial: %s\nspec: %+v\nminimal failing spec: %+v",
				i, shards, diff, specSummary(spec), specSummary(min))
		}
	}
}

// TestEnableShardingValidation pins the refusal cases and the degenerate
// topologies of EnableSharding.
func TestEnableShardingValidation(t *testing.T) {
	t.Run("bad-count", func(t *testing.T) {
		p := MustBuild(quick(STBus, Distributed, LMIDDR))
		if err := p.EnableSharding(0); err == nil {
			t.Fatal("EnableSharding(0) should fail")
		}
	})
	t.Run("twice", func(t *testing.T) {
		p := MustBuild(quick(STBus, Distributed, LMIDDR))
		if err := p.EnableSharding(2); err != nil {
			t.Fatal(err)
		}
		if err := p.EnableSharding(2); err == nil {
			t.Fatal("second EnableSharding should fail")
		}
	})
	t.Run("after-start", func(t *testing.T) {
		p := MustBuild(quick(STBus, Distributed, LMIDDR))
		p.Kernel.RunCycles(p.CentralClk, 10)
		if err := p.EnableSharding(2); err == nil {
			t.Fatal("EnableSharding after stepping should fail")
		}
	})
	t.Run("csv-sampler", func(t *testing.T) {
		p := MustBuild(quick(STBus, Distributed, LMIDDR))
		p.samplerAttached = true
		if err := p.EnableSharding(2); err == nil {
			t.Fatal("EnableSharding with the CSV/VCD sampler should fail")
		}
	})
	t.Run("one-shard-stays-serial", func(t *testing.T) {
		p := MustBuild(quick(STBus, Distributed, LMIDDR))
		if err := p.EnableSharding(1); err != nil {
			t.Fatal(err)
		}
		if p.sharded || p.Shards() != 1 {
			t.Fatalf("one shard must stay serial (sharded=%v shards=%d)", p.sharded, p.Shards())
		}
	})
	t.Run("clamped-to-units", func(t *testing.T) {
		// Collapsed without DSP has a single clock domain: one unit.
		s := quick(STBus, Collapsed, OnChip)
		s.WithDSP = false
		p := MustBuild(s)
		if err := p.EnableSharding(8); err != nil {
			t.Fatal(err)
		}
		if p.Shards() != 1 {
			t.Fatalf("collapsed no-DSP topology must clamp to 1 shard, got %d", p.Shards())
		}
		// With the DSP there are two units (central + cpu).
		p2 := MustBuild(quick(AXI, Collapsed, LMIDDR))
		if err := p2.EnableSharding(8); err != nil {
			t.Fatal(err)
		}
		if p2.Shards() != 2 {
			t.Fatalf("collapsed DSP topology must clamp to 2 shards, got %d", p2.Shards())
		}
		r := p2.Run(5e12)
		if !r.Done {
			t.Fatal("clamped sharded run did not drain")
		}
	})
	t.Run("timelines-after-sharding-panics", func(t *testing.T) {
		p := MustBuild(quick(STBus, Distributed, LMIDDR))
		if err := p.EnableSharding(2); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if recover() == nil {
				t.Fatal("EnableTimelines after EnableSharding should panic")
			}
		}()
		p.EnableTimelines(0, 0)
	})
}

// TestShardedZeroAllocSteadyState proves the 0 allocs/cycle invariant holds
// in parallel mode: one synchronization window — a parallel RunWindow across
// all shard kernels plus the barrier commit of every boundary FIFO — performs
// no heap allocation in steady state.
func TestShardedZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	p := MustBuild(DefaultSpec())
	if err := p.EnableSharding(4); err != nil {
		t.Fatal(err)
	}
	ex := p.newShardExec()
	defer ex.runner.Close()
	for i := 0; i < 5000; i++ {
		ex.window()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		ex.window()
	})
	if allocs != 0 {
		t.Fatalf("steady-state window allocates: %.2f allocs/window (want 0)", allocs)
	}
	if len(p.boundaryFifos) == 0 {
		t.Fatal("no boundary FIFOs — the cut did not happen")
	}
}

// TestShardedStallDetection pins watchdog equivalence: a sharded run of a
// deadlocking configuration must report the same Stalled outcome as serial.
// Forcing a single outstanding slot with a zero-depth emulation is not
// possible through the public spec, so this test instead relies on the
// budget path: a run cut off mid-flight must stop at the same instant.
func TestShardedBudgetCutoff(t *testing.T) {
	spec := quick(STBus, Distributed, LMIDDR)
	const budget = 20_000_000 // 20 µs: mid-run for this workload
	run := func(n int) Result {
		p := MustBuild(spec)
		if n > 1 {
			if err := p.EnableSharding(n); err != nil {
				t.Fatal(err)
			}
		}
		return p.Run(budget)
	}
	ref := run(1)
	if ref.Done {
		t.Fatalf("budget %d did not cut the run off — shrink it", budget)
	}
	for _, n := range []int{2, 4} {
		r := run(n)
		if !reflect.DeepEqual(r, ref) {
			t.Errorf("shards=%d: budget-cut Result differs from serial (exec %d vs %d ps, cycles %d vs %d)",
				n, r.ExecPS, ref.ExecPS, r.CentralCycles, ref.CentralCycles)
		}
	}
}
