package platform

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mpsocsim/internal/metrics"
	"mpsocsim/internal/replay"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/telemetry"
	"mpsocsim/internal/tracecap"
)

// Activity-gating equivalence (DESIGN.md §20): a gated platform must be
// indistinguishable from one that evaluates every component at every edge.

// gatingPreps are the instrumentation configurations both lockstep twins
// get, so the equivalence covers every observability layer.
var gatingPreps = []struct {
	name string
	prep func(p *Platform)
}{
	{"plain", func(p *Platform) {}},
	{"observed", func(p *Platform) {
		p.EnableAttribution(64)
		p.EnableTelemetry(97, 1<<14)
		p.AttachCapture(tracecap.NewCapture(p.Spec.Name(), 0))
	}},
}

// lockstepMaxPS bounds every lockstep run; the specs drain long before it.
const lockstepMaxPS = 2e12

// gatedArtifacts is everything a finished run emits: the Result, its report
// and summary, the telemetry stream and the captured trace.
func gatedArtifacts(p *Platform, r Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return nil, err
	}
	if err := r.WriteSummary(&buf); err != nil {
		return nil, err
	}
	if col := p.Telemetry(); col != nil {
		if err := telemetry.NewStreamer(&buf, col, telemetry.NDJSON).Close(); err != nil {
			return nil, err
		}
	}
	if c := p.Capture(); c != nil {
		if _, err := c.Trace().WriteTo(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// lockstepDiff runs spec gated and under full evaluation side by side,
// comparing Observable() at every central cycle and Snapshot() bytes every
// grid cycles, then finishes both and compares every emitted artifact. A
// third, unobserved gated run (no per-cycle settling) must finish with the
// same artifacts. It returns "" when all agree, or the first divergence.
func lockstepDiff(spec Spec, prep func(*Platform), grid int64) string {
	build := func(full bool) (*Platform, error) {
		p, err := Build(spec)
		if err != nil {
			return nil, err
		}
		p.Kernel.SetFullEval(full)
		prep(p)
		return p, nil
	}
	gated, err := build(false)
	if err != nil {
		return fmt.Sprintf("build: %v", err)
	}
	full, _ := build(true)
	plain, _ := build(false)

	for c := int64(1); ; c++ {
		pg := gated.RunToCycle(c, lockstepMaxPS)
		pf := full.RunToCycle(c, lockstepMaxPS)
		if pg != pf {
			return fmt.Sprintf("cycle %d: gated paused=%v, full paused=%v", c, pg, pf)
		}
		if d := observableDiff(gated.Observable(), full.Observable()); d != "" {
			return fmt.Sprintf("cycle %d: %s", c, d)
		}
		if c%grid == 0 {
			var sg, sf bytes.Buffer
			if err := gated.Snapshot(&sg); err != nil {
				return fmt.Sprintf("cycle %d: gated snapshot: %v", c, err)
			}
			if err := full.Snapshot(&sf); err != nil {
				return fmt.Sprintf("cycle %d: full snapshot: %v", c, err)
			}
			if !bytes.Equal(sg.Bytes(), sf.Bytes()) {
				return fmt.Sprintf("cycle %d: snapshot bytes differ (%d vs %d bytes)", c, sg.Len(), sf.Len())
			}
		}
		if !pg {
			break
		}
	}
	rg, rf, rp := gated.Run(lockstepMaxPS), full.Run(lockstepMaxPS), plain.Run(lockstepMaxPS)
	if !reflect.DeepEqual(rg, rf) {
		return "final Result differs"
	}
	if !reflect.DeepEqual(rp, rf) {
		return "final Result of the unobserved gated run differs"
	}
	ag, _ := gatedArtifacts(gated, rg)
	af, _ := gatedArtifacts(full, rf)
	ap, _ := gatedArtifacts(plain, rp)
	if !bytes.Equal(ag, af) {
		return fmt.Sprintf("final artifacts differ (%d vs %d bytes)", len(ag), len(af))
	}
	if !bytes.Equal(ap, af) {
		return fmt.Sprintf("final artifacts of the unobserved gated run differ (%d vs %d bytes)", len(ap), len(af))
	}
	if _, skipped := gated.Kernel.EvalCounts(); skipped == 0 {
		return "gated run skipped nothing"
	}
	if _, skipped := full.Kernel.EvalCounts(); skipped != 0 {
		return fmt.Sprintf("full evaluation skipped %d component-edges", skipped)
	}
	return ""
}

// observableDiff names the first instrument on which two observable states
// disagree.
func observableDiff(a, b ObservableState) string {
	if a.Cycle != b.Cycle || a.TimePS != b.TimePS {
		return fmt.Sprintf("instant %d/%dps vs %d/%dps", a.Cycle, a.TimePS, b.Cycle, b.TimePS)
	}
	if d := firstCounterDiff(a.Counters, b.Counters); d != "" {
		return d
	}
	for i := range a.Gauges {
		if a.Gauges[i] != b.Gauges[i] {
			return fmt.Sprintf("gauge %s: gated %d, full %d", a.Gauges[i].Name, a.Gauges[i].Value, b.Gauges[i].Value)
		}
	}
	return ""
}

func firstCounterDiff(a, b []metrics.CounterValue) string {
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("counter %s: gated %d, full %d", a[i].Name, a[i].Value, b[i].Value)
		}
	}
	return ""
}

// TestGatingLockstepGoldens holds the golden specs to full-evaluation
// equivalence under every instrumentation configuration.
func TestGatingLockstepGoldens(t *testing.T) {
	for name, spec := range goldenSpecs() {
		for _, gp := range gatingPreps {
			name, spec, gp := name, spec, gp
			t.Run(name+"/"+gp.name, func(t *testing.T) {
				if d := lockstepDiff(spec, gp.prep, 997); d != "" {
					t.Fatalf("gated run diverged from full evaluation: %s", d)
				}
			})
		}
	}
}

// TestGatingLockstepGrid holds every fabric × topology × memory variant of
// the Fig.3/Fig.5 sweep that the goldens do not pin to full-evaluation
// equivalence, under every instrumentation configuration, at a small scale.
func TestGatingLockstepGrid(t *testing.T) {
	pinned := map[string]bool{}
	for _, spec := range goldenSpecs() {
		if !spec.IO.Enable {
			pinned[spec.Name()] = true
		}
	}
	for _, proto := range []Protocol{STBus, AHB, AXI} {
		for _, topo := range []Topology{Distributed, Collapsed} {
			for _, m := range []MemoryKind{OnChip, LMIDDR} {
				spec := quick(proto, topo, m)
				if pinned[spec.Name()] {
					continue
				}
				spec.WorkloadScale = 0.05
				for _, gp := range gatingPreps {
					gp := gp
					t.Run(spec.Name()+"/"+gp.name, func(t *testing.T) {
						if d := lockstepDiff(spec, gp.prep, 251); d != "" {
							t.Fatalf("gated run diverged from full evaluation: %s", d)
						}
					})
				}
			}
		}
	}
}

// randomGatingSpec extends the property-test spec space with STBus message
// arbitration switched off and with timed and elastic replay of a captured
// trace.
func randomGatingSpec(rng *rand.Rand) Spec {
	s := randomSpec(rng)
	s.WorkloadScale = 0.05 + 0.1*rng.Float64()
	s.NoMessageArbitration = rng.Intn(2) == 0
	if rng.Intn(3) == 0 {
		src := s
		src.Replay = nil
		p, err := Build(src)
		if err != nil {
			return s
		}
		c := tracecap.NewCapture(src.Name(), 0)
		p.AttachCapture(c)
		p.Run(lockstepMaxPS)
		s.Replay = c.Trace()
		s.ReplayMode = []replay.Mode{replay.Timed, replay.Elastic}[rng.Intn(2)]
		s.ReplayOutstanding = 1 + rng.Intn(8)
		// Elastic replay into a different fabric exercises cross-fabric
		// stimulus; timed replay stays on the capturing platform.
		if s.ReplayMode == replay.Elastic {
			s.Protocol = []Protocol{STBus, AHB, AXI}[rng.Intn(3)]
		}
	}
	return s
}

// shrinkGatingSpec reduces a failing spec one dimension at a time while the
// lockstep divergence persists. A replay spec keeps its trace; reductions
// the trace cannot drive (Build errors) are skipped.
func shrinkGatingSpec(spec Spec, prep func(*Platform)) Spec {
	return shrinkWhile(spec, func(s Spec) bool {
		if _, err := Build(s); err != nil {
			return false
		}
		return lockstepDiff(s, prep, 251) != ""
	})
}

// TestGatingLockstepRandomSpecs fuzzes gated/full equivalence over seeded
// random specs (fabric, topology, memory, I/O, two-phase, DSP, message
// arbitration, replay) with and without instrumentation, shrinking any
// failure to a minimal spec.
func TestGatingLockstepRandomSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED_0012))
	n := 8
	if testing.Short() {
		n = 4
	}
	for i := 0; i < n; i++ {
		spec := randomGatingSpec(rng)
		gp := gatingPreps[rng.Intn(len(gatingPreps))]
		if d := lockstepDiff(spec, gp.prep, 251); d != "" {
			min := shrinkGatingSpec(spec, gp.prep)
			t.Fatalf("case %d (%s): gated run diverged from full evaluation: %s\nspec: %s io=%v nomsg=%v replay=%v/%v\nminimal failing spec: %s io=%v nomsg=%v",
				i, gp.name, d, specSummary(spec), spec.IO.Enable, spec.NoMessageArbitration, spec.Replay != nil, spec.ReplayMode,
				specSummary(min), min.IO.Enable, min.NoMessageArbitration)
		}
	}
}

// TestGatingSnapshotWhileAsleep checkpoints a gated run at an instant when
// components sleep and requires the restored run to finish bit-identically
// to the uninterrupted one.
func TestGatingSnapshotWhileAsleep(t *testing.T) {
	spec := quickIO(STBus, Distributed, LMIDDR)
	ref := MustBuild(spec)
	want, _ := gatedArtifacts(ref, ref.Run(lockstepMaxPS))

	p := MustBuild(spec)
	var at int64
	for c := int64(1000); ; c += 37 {
		if !p.RunToCycle(c, lockstepMaxPS) {
			t.Fatal("run drained before any component slept")
		}
		if sleepers(p) > 0 {
			at = c
			break
		}
	}
	var snap bytes.Buffer
	if err := p.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	q, err := Restore(spec, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r := q.Run(lockstepMaxPS)
	r.ResumedFromCycle = 0
	got, _ := gatedArtifacts(q, r)
	if !bytes.Equal(got, want) {
		t.Fatalf("run restored at cycle %d (%d sleepers) differs from the uninterrupted run", at, sleepers(p))
	}
	// The interrupted platform itself also finishes identically.
	r = p.Run(lockstepMaxPS)
	if got, _ := gatedArtifacts(p, r); !bytes.Equal(got, want) {
		t.Fatal("snapshotting a sleeping platform changed the rest of its run")
	}
}

// sleepers counts the platform's gated components currently asleep.
func sleepers(p *Platform) int {
	n := 0
	for _, g := range p.gens {
		if g.(sim.Gated).Activity().Asleep() {
			n++
		}
	}
	return n
}

// TestGatingSkipFloor guards against losing the gating silently: most
// component-edges only count — idle, or blocked behind a full FIFO — and the
// kernel must skip at least the floor's share of them, a few points under
// the measured fraction: on the I/O golden (83.3% skipped) and on the AHB
// and AXI distributed LMI platforms (87.6% and 87.0%), whose fabrics mostly
// wait on the LMI bridge.
func TestGatingSkipFloor(t *testing.T) {
	for _, c := range []struct {
		spec  Spec
		floor float64
	}{
		{quickIO(STBus, Distributed, LMIDDR), 0.70},
		{quick(AHB, Distributed, LMIDDR), 0.84},
		{quick(AXI, Distributed, LMIDDR), 0.84},
	} {
		p := MustBuild(c.spec)
		if r := p.Run(lockstepMaxPS); !r.Done {
			t.Fatalf("%s did not drain", c.spec.Name())
		}
		ev, sk := p.Kernel.EvalCounts()
		frac := float64(sk) / float64(ev+sk)
		t.Logf("%s: evaluated %d, skipped %d component-edges (%.1f%% skipped)", c.spec.Name(), ev, sk, 100*frac)
		if frac < c.floor {
			t.Errorf("%s: kernel skipped only %.1f%% of component-edges, want >= %.0f%%", c.spec.Name(), 100*frac, 100*c.floor)
		}
	}
}

// TestGatingSingleLayerMatchesFullEval holds the §4.1 single-layer
// testbenches to full evaluation in lockstep, plain and observed, on every
// fabric with one and with four memories.
func TestGatingSingleLayerMatchesFullEval(t *testing.T) {
	for _, proto := range []Protocol{STBus, AHB, AXI} {
		for _, memories := range []int{1, 4} {
			spec := SingleLayerBench(proto, memories, 60, 2, 1)
			for _, pr := range gatingPreps {
				if d := lockstepDiff(spec, pr.prep, 500); d != "" {
					t.Errorf("%v with %d memories, %s: %s", proto, memories, pr.name, d)
				}
			}
		}
	}
}
