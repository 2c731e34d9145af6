package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mpsocsim/internal/telemetry"
	"mpsocsim/internal/tracecap"
)

// drainNDJSON renders every record the collector holds as NDJSON bytes.
func drainNDJSON(t *testing.T, col *telemetry.Collector) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := telemetry.NewStreamer(&buf, col, telemetry.NDJSON)
	if err := s.Close(); err != nil {
		t.Fatalf("streamer: %v", err)
	}
	if n := s.Skipped(); n != 0 {
		t.Fatalf("telemetry ring overflowed: %d records lost", n)
	}
	return buf.Bytes()
}

// TestTelemetryOffIsBitIdentical proves telemetry is purely observational:
// the full run report (every counter, gauge, histogram and the summary
// tables) of a telemetry-enabled run is byte-identical to a plain one.
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

// TestTelemetryResumesAfterRestore holds EnableTelemetry's restore
// contract on every golden spec: a collector enabled on a restored platform
// records exactly the uninterrupted run's records past the restore cycle.
// Only Seq differs, because it counts from the collector's own start. The
// cadence does not divide checkpointAt, so the first restored snapshot must
// land on the next cadence multiple, not one cadence after the restore.
func TestTelemetryResumesAfterRestore(t *testing.T) {
	const every = 128
	records := func(p *Platform) []telemetry.Record {
		col := p.EnableTelemetry(every, 0)
		if r := p.Run(5e12); !r.Done {
			t.Fatalf("%s did not drain (stalled=%v)", p.Spec.Name(), r.Stalled)
		}
		if n := col.Dropped(); n != 0 {
			t.Fatalf("telemetry ring overflowed: %d records lost", n)
		}
		recs, _ := col.Drain(0)
		for i := range recs {
			recs[i].Seq, recs[i].WallNS = 0, 0
		}
		return recs
	}
	for name, spec := range goldenSpecs() {
		t.Run(name, func(t *testing.T) {
			cold := records(MustBuild(spec))
			p := MustBuild(spec)
			if !p.RunToCycle(checkpointAt, 5e12) {
				t.Fatal("drained before the checkpoint")
			}
			var buf bytes.Buffer
			if err := p.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			rp, err := Restore(spec, bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			at := rp.ResumedCycles()
			warm := records(rp)
			var want []telemetry.Record
			for _, rec := range cold {
				if rec.Cycle > at {
					want = append(want, rec)
				}
			}
			if len(warm) != len(want) || len(want) == 0 {
				t.Fatalf("restored run recorded %d records, the uninterrupted run %d past cycle %d", len(warm), len(want), at)
			}
			for i := range want {
				if !reflect.DeepEqual(warm[i], want[i]) {
					t.Fatalf("record %d (cycle %d) differs from the uninterrupted run's (cycle %d)", i, warm[i].Cycle, want[i].Cycle)
				}
			}
		})
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
// assembles a coherent report, and it shows the DSP core as an issue side:
// an st220 row on the cpu clock, and the cpu domain's last progress.
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
	dsp := false
	for _, in := range rep.Initiators {
		inFlight += in.InFlight
		if in.InFlight > 0 && in.OldestAgePS <= 0 {
			t.Errorf("%s has %d in flight but oldest age %d ps", in.Name, in.InFlight, in.OldestAgePS)
		}
		dsp = dsp || in.Name == "st220" && in.Clock == "cpu"
	}
	if inFlight == 0 {
		t.Fatal("mid-run cut shows no transaction in flight")
	}
	if !dsp {
		t.Errorf("no st220 row on the cpu clock among the %d initiator rows", len(rep.Initiators))
	}
	cpu := slices.IndexFunc(rep.Domains, func(d telemetry.DomainHealth) bool { return d.Clock == "cpu" })
	if cpu < 0 {
		t.Fatal("the report has no cpu domain row")
	}
	if lp := rep.Domains[cpu].LastProgressCycle; lp < 0 {
		t.Errorf("the cpu domain's last progress is %d: the DSP core's issue side is not read", lp)
	}
}

// TestStallReportRestoreInvariant holds the stall report to the checkpoint
// contract (DESIGN.md §16, §19): a platform restored at cycle c and advanced
// to cycle h must report exactly what the uninterrupted run reports at h —
// the in-flight sets, oldest requests, last-progress cycles and the counters
// that moved in the last watchdog window. The late case restores past the
// first watchdog observation (central cycle 200,000), so its baselines come
// from the snapshot. Each spec runs as generated traffic, with the I/O
// subsystem, and as a replay of the I/O spec's capture.
func TestStallReportRestoreInvariant(t *testing.T) {
	const budget = 5e12
	cases := []struct {
		name  string
		scale float64
		c, h  int64
	}{
		{"early", 1, 7_400, 7_500},
		{"late", 8, 220_000, 225_000},
	}
	for _, tc := range cases {
		ref := DefaultSpec()
		ref.WorkloadScale = tc.scale
		withIO := ref
		withIO.IO.Enable = true
		// A capture of the I/O spec up to h is all the replay can issue
		// before the report.
		cp := MustBuild(withIO)
		capt := tracecap.NewCapture(withIO.Name(), 0)
		cp.AttachCapture(capt)
		cp.RunToCycle(tc.h, budget)
		replayed := withIO
		replayed.Replay = capt.Trace()
		for _, s := range []struct {
			name string
			spec Spec
		}{{"reference", ref}, {"io", withIO}, {"io-replay", replayed}} {
			t.Run(tc.name+"/"+s.name, func(t *testing.T) {
				reason := fmt.Sprintf("report at cycle %d", tc.h)
				p := MustBuild(s.spec)
				if !p.RunToCycle(tc.h, budget) {
					t.Fatalf("the run ended before cycle %d", tc.h)
				}
				want := p.StallReport(reason, 10)
				if want.Issued == want.Completed {
					t.Fatalf("nothing in flight at cycle %d: the comparison would show nothing", tc.h)
				}

				rp := MustBuild(s.spec)
				rp.RunToCycle(tc.c, budget)
				var buf bytes.Buffer
				if err := rp.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				rp, err := Restore(s.spec, &buf)
				if err != nil {
					t.Fatal(err)
				}
				rp.RunToCycle(tc.h, budget)
				got := rp.StallReport(reason, 10)
				if !reflect.DeepEqual(got, want) {
					var g, w bytes.Buffer
					got.Write(&g)
					want.Write(&w)
					t.Fatalf("restored at cycle %d, the report at %d differs from the uninterrupted run's.\nrestored:\n%s\nuninterrupted:\n%s", tc.c, tc.h, g.String(), w.String())
				}
				if len(want.Moved) == 0 && tc.c > 200_000 {
					t.Fatalf("no counter moved in the last watchdog window at cycle %d", tc.h)
				}
			})
		}
	}
}
