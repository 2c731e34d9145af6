package platform

import (
	"reflect"
	"strings"
	"testing"

	"mpsocsim/internal/replay"
	"mpsocsim/internal/tracecap"
)

// captureRun runs spec with a capture attached and returns the result and
// the recorded trace.
func captureRun(t *testing.T, s Spec) (Result, *tracecap.Trace) {
	t.Helper()
	p := MustBuild(s)
	c := tracecap.NewCapture(s.Name(), 0)
	p.AttachCapture(c)
	r := p.Run(5e12)
	if !r.Done {
		t.Fatalf("%s capture run did not drain", s.Name())
	}
	return r, c.Trace()
}

// TestCaptureReplayRoundTrip is the acceptance criterion of the capture/
// replay subsystem: capturing a reference STBus run and replaying the trace
// in timed mode on the same platform must reproduce the run bit-identically —
// the same total cycle count and, re-capturing the replay, the exact same
// trace (which subsumes identical per-initiator latency histograms).
func TestCaptureReplayRoundTrip(t *testing.T) {
	base := quick(STBus, Distributed, LMIDDR)
	ref, tr := captureRun(t, base)
	if tr.Events() == 0 || tr.Truncated() {
		t.Fatalf("degenerate capture: %d events, truncated=%v", tr.Events(), tr.Truncated())
	}

	// The trace must survive its own serialization: the replay consumes the
	// decoded form, so round-trip through the codec first.
	decoded, err := tracecap.Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}

	spec := base
	spec.Replay = decoded
	spec.ReplayMode = replay.Timed
	rep, tr2 := captureRun(t, spec)

	if rep.CentralCycles != ref.CentralCycles {
		t.Fatalf("timed replay diverged: %d cycles vs %d captured", rep.CentralCycles, ref.CentralCycles)
	}
	if rep.Issued != ref.Issued || rep.Completed != ref.Completed {
		t.Fatalf("transaction counts diverged: %d/%d vs %d/%d",
			rep.Issued, rep.Completed, ref.Issued, ref.Completed)
	}
	if !reflect.DeepEqual(tr2.Streams, tr.Streams) {
		for _, s := range tr.Streams {
			s2 := tr2.Stream(s.Name)
			if s2 == nil {
				t.Fatalf("replay lost stream %q", s.Name)
			}
			h, h2 := s.LatencyHistogram(), s2.LatencyHistogram()
			t.Logf("%s: events %d vs %d, mean %.2f vs %.2f, p90 %d vs %d",
				s.Name, len(s.Events), len(s2.Events), h.Mean(), h2.Mean(),
				h.Quantile(0.9), h2.Quantile(0.9))
		}
		t.Fatal("re-captured replay trace differs from the original capture")
	}
}

// TestReplayCrossFabricDrains checks the subsystem's purpose: a stimulus
// captured on the reference STBus platform drives the AHB and AXI variants
// to completion, in both scheduling modes.
func TestReplayCrossFabricDrains(t *testing.T) {
	_, tr := captureRun(t, quick(STBus, Distributed, LMIDDR))
	for _, proto := range []Protocol{AHB, AXI} {
		for _, mode := range []replay.Mode{replay.Timed, replay.Elastic} {
			s := quick(proto, Distributed, LMIDDR)
			s.Replay = tr
			s.ReplayMode = mode
			p := MustBuild(s)
			r := p.Run(5e12)
			if !r.Done {
				t.Errorf("%s %s replay did not drain (issued=%d completed=%d)",
					s.Name(), mode, r.Issued, r.Completed)
				continue
			}
			if r.Issued != tr.Events() {
				t.Errorf("%s %s replay issued %d, trace has %d", s.Name(), mode, r.Issued, tr.Events())
			}
		}
	}
}

// TestReplayCrossClockDomains replays into the collapsed topology, whose
// cluster initiators run in the central 250 MHz domain instead of the
// 200 MHz cluster domains they were captured in — the issue-cycle rescaling
// path.
func TestReplayCrossClockDomains(t *testing.T) {
	_, tr := captureRun(t, quick(STBus, Distributed, LMIDDR))
	s := quick(STBus, Collapsed, LMIDDR)
	s.Replay = tr
	s.ReplayMode = replay.Timed
	p := MustBuild(s)
	r := p.Run(5e12)
	if !r.Done {
		t.Fatalf("cross-domain replay did not drain (issued=%d completed=%d)", r.Issued, r.Completed)
	}
}

// TestReplayValidation exercises the build-time validation: a trace missing
// a stream for a workload initiator must be rejected with an error naming
// both the initiator and the streams the trace does have.
func TestReplayValidation(t *testing.T) {
	s := quick(STBus, Distributed, LMIDDR)
	s.Replay = &tracecap.Trace{
		Platform: "other",
		Streams: []*tracecap.Stream{
			{Name: "nobody", PeriodPS: 4000},
		},
	}
	_, err := Build(s)
	if err == nil {
		t.Fatal("trace with no matching streams accepted")
	}
	if !strings.Contains(err.Error(), "no stream for initiator") ||
		!strings.Contains(err.Error(), "nobody") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestReplayDeterminism: two replays of the same trace are bit-identical
// Results, matching the determinism contract of live runs.
func TestReplayDeterminism(t *testing.T) {
	_, tr := captureRun(t, quick(STBus, Distributed, LMIDDR))
	mk := func() Result {
		s := quick(AHB, Distributed, LMIDDR)
		s.Replay = tr
		s.ReplayMode = replay.Timed
		return runCycles(t, s)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay runs diverged: %d vs %d cycles", a.CentralCycles, b.CentralCycles)
	}
}

// TestPortsCarryProbeOnlyWithCapture checks that no traffic-source port
// carries a probe until capture is attached, and that each then carries
// exactly its capture stream: the stall report needs none, so the issue and
// completion paths of an unobserved run make no probe call.
func TestPortsCarryProbeOnlyWithCapture(t *testing.T) {
	p := MustBuild(quickIO(STBus, Distributed, LMIDDR))
	for _, g := range p.gens {
		if g.Port().Probe != nil {
			t.Fatalf("%s carries a %T probe without capture", g.Name(), g.Port().Probe)
		}
	}
	p.AttachCapture(tracecap.NewCapture(p.Spec.Name(), 0))
	for _, g := range p.gens {
		if _, ok := g.Port().Probe.(*tracecap.StreamProbe); !ok {
			t.Fatalf("%s carries a %T probe under capture, want its *tracecap.StreamProbe", g.Name(), g.Port().Probe)
		}
	}
}
