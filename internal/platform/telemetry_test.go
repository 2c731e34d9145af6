package platform

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mpsocsim/internal/telemetry"
)

// drainNDJSON renders every record the collector holds as NDJSON bytes.
func drainNDJSON(t *testing.T, col *telemetry.Collector) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := telemetry.NewStreamer(&buf, col)
	if err := s.Close(); err != nil {
		t.Fatalf("streamer: %v", err)
	}
	if n := s.Skipped(); n != 0 {
		t.Fatalf("telemetry ring overflowed: %d records lost", n)
	}
	return buf.Bytes()
}

// TestTelemetryOffIsBitIdentical proves telemetry is purely observational:
// the full run report (every counter, gauge, histogram, timeline and the
// summary tables) of a telemetry-enabled run is byte-identical to a plain
// one.
func TestTelemetryOffIsBitIdentical(t *testing.T) {
	spec := DefaultSpec()
	spec.WorkloadScale = 0.3

	run := func(withTele bool) []byte {
		p := MustBuild(spec)
		if withTele {
			p.EnableTelemetry(256, 1<<14)
		}
		r := p.Run(500e9)
		if !r.Done {
			t.Fatalf("run (telemetry=%v) did not drain (stalled=%v)", withTele, r.Stalled)
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteSummary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(false), run(true)) {
		t.Fatal("enabling telemetry perturbed the run report")
	}
}

// TestZeroAllocSteadyStateWithTelemetry extends the PR-2 invariant to the
// telemetry hot path: stepping the kernel plus the per-step snapshot poll —
// including the snapshots themselves, every 64 central cycles — performs
// zero heap allocations once the platform is warm.
func TestZeroAllocSteadyStateWithTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	p := MustBuild(DefaultSpec())
	col := p.EnableTelemetry(64, 256)
	for p.CentralClk.Cycles() < 5000 {
		if !p.Kernel.Step() {
			t.Fatal("workload drained during warm-up")
		}
		p.pollTelemetry()
	}

	allocs := testing.AllocsPerRun(2000, func() {
		p.Kernel.Step()
		p.pollTelemetry()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step with telemetry allocates: %.2f allocs/step (want 0)", allocs)
	}
	if col.Seq() == 0 {
		t.Fatal("no telemetry snapshots collected")
	}
}

// TestTelemetryStreamDeterministic proves the determinism contract of the
// record stream: two runs of the same spec stream byte-identical NDJSON,
// because records carry simulated time and counts only, never wall-clock
// time.
func TestTelemetryStreamDeterministic(t *testing.T) {
	spec := DefaultSpec()
	spec.WorkloadScale = 0.3

	run := func() []byte {
		p := MustBuild(spec)
		col := p.EnableTelemetry(256, 1<<14)
		if r := p.Run(5e12); !r.Done {
			t.Fatalf("run did not drain (stalled=%v)", r.Stalled)
		}
		return drainNDJSON(t, col)
	}
	want, got := run(), run()
	if len(want) == 0 {
		t.Fatal("run produced no telemetry records")
	}
	if !bytes.Equal(want, got) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
		for i := range wl {
			if i >= len(gl) || wl[i] != gl[i] {
				t.Fatalf("record %d differs\nfirst:  %.200s\nsecond: %.200s", i, wl[i], gl[i])
			}
		}
		t.Fatalf("NDJSON differs between runs (%d vs %d bytes)", len(want), len(got))
	}
}

// TestTelemetryRecordSchema validates the NDJSON form: every line is a JSON
// object carrying the schema tag and the documented keys, sequence numbers
// are dense from zero, and the wall-clock offset never leaks into the JSON.
func TestTelemetryRecordSchema(t *testing.T) {
	spec := DefaultSpec()
	spec.WorkloadScale = 0.2
	p := MustBuild(spec)
	col := p.EnableTelemetry(256, 1<<14)
	if r := p.Run(500e9); !r.Done {
		t.Fatalf("run did not drain (stalled=%v)", r.Stalled)
	}
	lines := bytes.Split(bytes.TrimSpace(drainNDJSON(t, col)), []byte("\n"))
	if len(lines) == 0 {
		t.Fatal("no records")
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("record %d is not valid JSON: %v", i, err)
		}
		if m["schema"] != telemetry.Schema {
			t.Fatalf("record %d schema = %v, want %q", i, m["schema"], telemetry.Schema)
		}
		for _, key := range []string{"seq", "cycle", "time_ps", "issued", "completed", "initiators", "counters", "gauges"} {
			if _, ok := m[key]; !ok {
				t.Fatalf("record %d missing key %q", i, key)
			}
		}
		if got := int64(m["seq"].(float64)); got != int64(i) {
			t.Fatalf("record %d has seq %d (sequence not dense)", i, got)
		}
		if _, leaked := m["WallNS"]; leaked {
			t.Fatalf("record %d leaks the wall-clock offset", i)
		}
	}
}

// forcedDeadlockSpec wedges a run on purpose: the I/O interrupt agents wait
// for device events millions of I/O cycles apart while every other traffic
// source is disabled or drains quickly, so the progress watchdog sees a
// silent window long before the first event fires.
func forcedDeadlockSpec() Spec {
	spec := DefaultSpec()
	spec.WorkloadScale = 0.05
	spec.IO.Enable = true
	spec.IO.IRQPeriodCycles = 4_000_000
	spec.IO.IRQEvents = 4
	spec.IO.DMADescriptors = -1
	spec.IO.AllocOps = -1
	return spec
}

// TestForcedDeadlockForensics drives the watchdog into firing and asserts
// the stall report answers the forensic questions: which FIFOs are fullest,
// what each initiator last did, which clock domains went quiet, and which
// counters still moved in the final window (the DSP keeps running — the
// wedge is in the I/O subsystem, and the report shows exactly that split).
func TestForcedDeadlockForensics(t *testing.T) {
	p := MustBuild(forcedDeadlockSpec())
	r := p.Run(5e12)
	if !r.Stalled {
		t.Fatalf("expected the watchdog to fire (done=%v issued=%d completed=%d)", r.Done, r.Issued, r.Completed)
	}

	rep := p.StallReport("test stall", 10)
	if rep.Cycle <= 0 || rep.TimePS <= 0 {
		t.Fatalf("report carries no position: cycle=%d time=%d", rep.Cycle, rep.TimePS)
	}
	if len(rep.Fifos) == 0 {
		t.Fatal("report lists no FIFOs")
	}
	for i := 1; i < len(rep.Fifos); i++ {
		if rep.Fifos[i].Fill > rep.Fifos[i-1].Fill {
			t.Fatalf("FIFO rows not fullest-first at %d", i)
		}
	}
	if len(rep.Initiators) == 0 {
		t.Fatal("report lists no initiators")
	}
	var sawIRQ bool
	for _, in := range rep.Initiators {
		if strings.HasPrefix(in.Name, "irq") {
			sawIRQ = true
			if in.LastIssueCycle < 0 && in.Issued > 0 {
				t.Errorf("%s issued %d but has no last-issue cycle", in.Name, in.Issued)
			}
		}
	}
	if !sawIRQ {
		t.Fatal("no interrupt agent row in the report")
	}
	if len(rep.Domains) < 2 {
		t.Fatalf("expected >= 2 clock domains, got %d", len(rep.Domains))
	}
	if rep.Domains[0].Clock != "central" {
		t.Fatalf("first domain = %q, want central", rep.Domains[0].Clock)
	}
	for _, d := range rep.Domains {
		if d.Cycles <= 0 {
			t.Errorf("domain %s never ticked", d.Clock)
		}
	}

	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"stall report: test stall",
		"fullest FIFOs",
		"oldest outstanding per initiator",
		"last progress per clock domain",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// TestStallReportAfterBudgetExhaustion covers the exit-3 forensics path: a
// run stopped by the simulated-time budget (not the watchdog) still
// assembles a coherent report.
func TestStallReportAfterBudgetExhaustion(t *testing.T) {
	spec := DefaultSpec()
	spec.WorkloadScale = 0.3
	p := MustBuild(spec)
	r := p.Run(10e6) // 10 us: far too short to drain
	if r.Done || r.Stalled {
		t.Fatalf("expected budget exhaustion, got done=%v stalled=%v", r.Done, r.Stalled)
	}
	rep := p.StallReport("budget", 5)
	if len(rep.Fifos) == 0 || len(rep.Fifos) > 5 {
		t.Fatalf("top-5 FIFO list has %d rows", len(rep.Fifos))
	}
	var inFlight int
	for _, in := range rep.Initiators {
		inFlight += in.InFlight
		if in.InFlight > 0 && in.OldestAgePS <= 0 {
			t.Errorf("%s has %d in flight but oldest age %d ps", in.Name, in.InFlight, in.OldestAgePS)
		}
	}
	if inFlight == 0 {
		t.Fatal("mid-run cut shows no transaction in flight")
	}
}
