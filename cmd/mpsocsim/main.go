// Command mpsocsim runs a single MPSoC platform instance and prints its
// run report: execution time, per-IP traffic statistics, memory-subsystem
// utilization and (for the LMI variant) the Fig.6-style bus-interface
// monitor totals.
//
// The platform is the reference one (platform.DefaultSpec) changed by a
// -config spec file, a [platform] section of key = value lines, and then by
// -set key=value pairs in command-line order. Both take the keys of
// platform.Keys, which -h lists with their values:
//
//	mpsocsim -set protocol=ahb -set memory=onchip -set waitstates=4 -set scale=0.5
//	mpsocsim -set protocol=axi -set topology=collapsed -set splitlmi=true
//	mpsocsim -config variant.conf -set seed=7
//
// Transaction traces close the capture/replay loop: -capture records the
// full per-initiator stimulus of the run into a compact binary trace, and
// -replay re-drives a previously captured trace in place of the IP traffic
// generators (-replay-mode timed|elastic), so any fabric variant can be
// measured under identical traffic:
//
//	mpsocsim -capture ref.trc
//	mpsocsim -set protocol=ahb -replay ref.trc
//
// Observability exports render the run's metrics registry: -report writes
// the schema-versioned JSON run report (schema mpsocsim.report/3: the final
// value of every counter, gauge and histogram), and -chrome-trace writes a
// Chrome trace-event file — per-initiator transaction lifecycles plus one
// counter track per gauge, read from the telemetry records taken every
// -telemetry-every central cycles — loadable in ui.perfetto.dev or
// chrome://tracing:
//
//	mpsocsim -report run.json -chrome-trace trace.json
//
// Latency attribution breaks every transaction's end-to-end latency into
// phase-stamped critical-path segments (initiator queue, arbitration, bus
// transfer, bridge store & forward, clock-domain crossing, SDRAM row
// preparation and CAS access, response return): -attr adds the attribution
// matrix to the JSON report and nested phase sub-slices to the Chrome trace,
// and -attr-top N prints the N heaviest initiators with their dominant phase
// to stderr:
//
//	mpsocsim -attr -report run.json
//	mpsocsim -attr-top 5
//
// Checkpoint/restore cuts a long run in two (or forks many runs off one
// warm-up prefix): -checkpoint-at N -checkpoint FILE snapshots the complete
// platform state at central cycle N and then finishes the run as usual, and
// -restore FILE resumes a later invocation from that snapshot instead of
// re-simulating the prefix. The restored run is bit-identical to an
// uninterrupted one — same report, same trace, same attribution. The
// observability configuration (capture, attribution) travels inside the
// checkpoint:
//
//	mpsocsim -checkpoint-at 8000 -checkpoint warm.ckpt -report cold.json
//	mpsocsim -restore warm.ckpt -report warm.json   # identical modulo resumed_from_cycle
//
// Live telemetry streams the run while it executes: -telemetry writes one
// NDJSON record (schema mpsocsim.telemetry/1) per -telemetry-every central
// cycles — cycle, simulated time, per-initiator issue/completion counts and
// the full counter/gauge registry — and -live serves the same collector over
// HTTP: Prometheus text at /metrics, an SSE record stream at /events and a
// JSON progress document (cycles/s, ETA against the budget) at /progress.
// The record stream is deterministic: byte-identical across runs of the same
// spec and cadence:
//
//	mpsocsim -telemetry run.ndjson -telemetry-every 512
//	mpsocsim -live 127.0.0.1:9100 & curl localhost:9100/progress
//
// Waveforms are two more encodings of the same record stream, written while
// the run executes: -trace writes CSV (header cycle,time_ps,issued,completed
// and then every gauge in registration order, such as lmi.lmi.queue_depth,
// mem.shmem.queue_depth or bridge.n5_dma_br.outstanding) and -vcd a Value
// Change Dump stamped in picoseconds, for GTKWave and other waveform viewers.
// Each record is the committed state at a -telemetry-every multiple, plus a
// final one at the run's end; the -chrome-trace counter tracks read the same
// records. All of these outputs compose with checkpoints: a -checkpoint
// run's files cover the whole run, and a -restore run's cover the resumed
// suffix, equal to the uninterrupted run's records past the checkpoint cycle
// (a restored Chrome trace's lifecycle slices still cover the whole run,
// since the capture travels in the checkpoint):
//
//	mpsocsim -trace run.csv -vcd run.vcd -telemetry-every 256
//
// Differential observability compares two runs. `mpsocsim diff A B` diffs
// two JSON run reports (or, with -stream, two telemetry NDJSON
// streams) into a schema-versioned mpsocsim.diff/1 document: counter/gauge/
// histogram deltas ranked by relative magnitude, attribution dominant-phase
// flips, deadline regressions — byte-identical across invocations. In run
// mode, -diff BASELINE.json diffs the finished run against a stored report,
// -diff-stream BASELINE.ndjson diffs the freshly written -telemetry stream,
// and -bisect B.conf skips the normal run entirely: it drives the -config
// and -set spec (variant A) and the spec file B.conf (variant B), which
// takes the same keys, in lockstep along a shared snapshot grid and
// binary-searches the exact first central-clock cycle where observable
// state diverges, with a forensics context block for that instant:
//
//	mpsocsim diff a.json b.json
//	mpsocsim -set protocol=ahb -diff stbus.json
//	mpsocsim -bisect variant-b.conf -bisect-grid 512
//
// The I/O subsystem (io=true) attaches a descriptor-chain DMA engine, two
// interrupt-driven device agents whose per-event service deadlines are
// tracked in the report's deadlines section, and a heap-allocator traffic
// source. The io.* keys shape it; negative counts disable the corresponding
// initiator family:
//
//	mpsocsim -set io=true
//	mpsocsim -set io=true -set io.dma.descriptors=-1      # storm off: devices + allocator only
//	mpsocsim -set io=true -set io.irq.deadline=128 -attr  # tighter deadlines, phase-attributed
//
// Exit status: 0 on a drained run; 1 on I/O errors and on a key or value
// the key table or Build rejects; 2 on a usage error (contradictory flags,
// like an io.* key without io=true or with -replay) and when the run
// deadlocked (the progress watchdog saw no transaction move); 3 when the
// simulated-time budget ran out first. Both non-drained outcomes dump a
// structured stall report to stderr — fullest FIFOs, per-initiator oldest
// outstanding transaction, last progress per clock domain, counters still
// moving in the final watchdog window — whether or not telemetry was on.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/diff"
	"mpsocsim/internal/platform"
	"mpsocsim/internal/replay"
	"mpsocsim/internal/stats"
	"mpsocsim/internal/telemetry"
	"mpsocsim/internal/tracecap"
)

// Exit codes distinguishing usage errors and the two non-drained outcomes.
const (
	exitUsage      = 2
	exitStalled    = 2
	exitOverBudget = 3
)

func main() {
	// `mpsocsim diff A B` is a pure artifact comparison — no simulation, no
	// run flags — so it dispatches before the run-flag parse.
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		runDiffCommand(os.Args[2:])
		return
	}
	configFile := flag.String("config", "", "platform spec file: a [platform] section of key = value lines, with the keys of -set")
	var sets []string
	var keyList strings.Builder
	for _, k := range platform.Keys() {
		fmt.Fprintf(&keyList, "\n  %-18s  %-21s  %s", k.Name, k.Values, k.Doc)
	}
	flag.Func("set", "set one platform spec `key=value`, after -config (repeatable; applied in command-line order). Keys:"+keyList.String(), func(kv string) error {
		if !strings.Contains(kv, "=") {
			return fmt.Errorf("want key=value")
		}
		sets = append(sets, kv)
		return nil
	})
	budgetMS := flag.Float64("budget", 50, "simulated-time budget in ms")
	traceFile := flag.String("trace", "", "write the telemetry records as CSV to this file, one row per -telemetry-every cadence instant: cycle, time_ps, issued, completed and every gauge")
	vcdFile := flag.String("vcd", "", "write the telemetry records as a VCD waveform (1 ps timescale) to this file: issued, completed and every gauge at each -telemetry-every cadence instant")
	captureFile := flag.String("capture", "", "record the per-initiator transaction trace to this file")
	replayFile := flag.String("replay", "", "replace the IP traffic generators with trace-driven replay from this file")
	replayMode := flag.String("replay-mode", "timed", "replay scheduling: timed|elastic")
	reportFile := flag.String("report", "", "write the JSON run report (full metrics snapshot) to this file")
	chromeFile := flag.String("chrome-trace", "", "write a Chrome trace-event/Perfetto file to this file: the transaction lifecycles and one counter track per gauge, sampled every -telemetry-every central cycles")
	attrOn := flag.Bool("attr", false, "enable per-transaction latency attribution (adds the report's attribution section and the Chrome-trace phase sub-slices)")
	attrTop := flag.Int("attr-top", 0, "print the top-N initiators by attributed latency, with their dominant phase, to stderr (implies -attr)")
	checkpointFile := flag.String("checkpoint", "", "write a full-state checkpoint to this file at -checkpoint-at, then finish the run")
	checkpointAt := flag.Int64("checkpoint-at", 0, "central-clock cycle to take the -checkpoint at (> 0)")
	restoreFile := flag.String("restore", "", "resume from a checkpoint written by -checkpoint instead of simulating the prefix (-config and -set must rebuild the same platform; observability travels with the checkpoint)")
	telemetryFile := flag.String("telemetry", "", "stream NDJSON telemetry records (schema mpsocsim.telemetry/1) to this file while the run executes")
	telemetryEvery := flag.Int64("telemetry-every", platform.DefaultTelemetryEvery, "telemetry snapshot cadence in central cycles (for -telemetry/-trace/-vcd/-live/-chrome-trace)")
	liveAddr := flag.String("live", "", "serve live run telemetry over HTTP on this address (/metrics Prometheus text, /events SSE, /progress JSON)")
	diffFile := flag.String("diff", "", "after the run, diff its report against the baseline run report JSON in this file and write the mpsocsim.diff/1 document to stdout instead of the text summary")
	diffStreamFile := flag.String("diff-stream", "", "after the run, diff its -telemetry NDJSON stream against the baseline stream in this file and write the mpsocsim.diff/1 document to stdout instead of the text summary")
	bisectFile := flag.String("bisect", "", "localize divergence instead of running: treat the -config/-set spec as variant A and this platform spec file as variant B, binary-search the first central-clock cycle where observable state differs, and write the mpsocsim.diff/1 bisect document to stdout")
	bisectGrid := flag.Int64("bisect-grid", 0, "checkpoint grid spacing in central cycles for -bisect (0 = default 2048; rounded up to a power of two)")
	flag.Parse()

	spec, err := loadSpec(*configFile, sets)
	if err != nil {
		fatalf("%v", err)
	}

	// Contradictory flag combinations are usage errors (exit 2), not silent
	// no-ops: an io.* key (from -config or -set) shapes nothing without the
	// subsystem, replayed traffic comes from the trace rather than the
	// generators, a restored run's observability travels inside the
	// checkpoint, and a checkpoint needs both its file and its cycle.
	set := map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if spec.IO != (platform.IOSpec{Enable: spec.IO.Enable}) {
		if !spec.IO.Enable {
			usagef("io.* keys need io=true (from -config or -set): the I/O subsystem is not attached")
		}
		if *replayFile != "" {
			usagef("io.* keys conflict with -replay: replayed traffic comes from the trace, not the generators — re-capture with the desired I/O configuration instead")
		}
	}
	if *restoreFile != "" && (*attrOn || *attrTop > 0) {
		usagef("-attr/-attr-top cannot be enabled at -restore: observability travels inside the checkpoint — pass them to the run that takes the checkpoint")
	}
	// Differential-observability flags have their own contradictions: diffs
	// compare complete artifacts, bisection performs no normal run, and
	// elastic replay reschedules issue instants per fabric so per-cycle
	// alignment between variants is ill-defined.
	for _, name := range []string{"diff", "diff-stream", "bisect"} {
		if !set[name] {
			continue
		}
		if *restoreFile != "" {
			usagef("-%s cannot be combined with -restore: a restored run resumes mid-flight, so its artifacts cover only the suffix — diff two complete runs (or bisect two fresh variants) instead", name)
		}
		if *replayMode == "elastic" {
			usagef("-%s conflicts with -replay-mode elastic: elastic replay reschedules issue instants per fabric, so per-cycle alignment between the two sides is ill-defined — use the default timed replay", name)
		}
	}
	if *diffFile != "" && *diffStreamFile != "" {
		usagef("-diff and -diff-stream both claim stdout for their document; run them separately")
	}
	if *diffStreamFile != "" && *telemetryFile == "" {
		usagef("-diff-stream needs -telemetry FILE: the comparison reads the stream this run writes")
	}
	if *bisectFile != "" {
		if *diffFile != "" || *diffStreamFile != "" {
			usagef("-bisect runs the paired localization search instead of a normal run; it cannot be combined with -diff/-diff-stream")
		}
		for _, out := range []struct {
			name string
			on   bool
		}{
			{"capture", *captureFile != ""}, {"report", *reportFile != ""},
			{"chrome-trace", *chromeFile != ""}, {"trace", *traceFile != ""},
			{"vcd", *vcdFile != ""}, {"telemetry", *telemetryFile != ""},
			{"live", *liveAddr != ""},
			{"checkpoint", *checkpointFile != "" || *checkpointAt != 0},
		} {
			if out.on {
				usagef("-%s has nothing to apply to under -bisect: the localization search performs no normal run", out.name)
			}
		}
	}
	switch {
	case *restoreFile != "" && (*checkpointFile != "" || *checkpointAt != 0):
		usagef("-restore is mutually exclusive with -checkpoint/-checkpoint-at: checkpoint the run that -restore resumes from instead")
	case *checkpointFile != "" && *checkpointAt <= 0:
		usagef("-checkpoint needs -checkpoint-at N (> 0): the central-clock cycle to snapshot at")
	case *checkpointAt != 0 && *checkpointFile == "":
		usagef("-checkpoint-at needs -checkpoint FILE: the file to write the snapshot to")
	}

	if *replayFile != "" {
		tr, err := tracecap.ReadFile(*replayFile)
		if err != nil {
			fatalf("replay: %v", err)
		}
		mode, err := replay.ParseMode(*replayMode)
		if err != nil {
			fatalf("%v", err)
		}
		spec.Replay = tr
		spec.ReplayMode = mode
	}

	budget := int64(*budgetMS * 1e9)
	if *bisectFile != "" {
		// Variant B comes from its own platform config; the replayed stimulus
		// (if any) is shared so both variants see identical traffic.
		specB, err := loadSpec(*bisectFile, nil)
		if err != nil {
			fatalf("bisect: %v", err)
		}
		specB.Replay = spec.Replay
		specB.ReplayMode = spec.ReplayMode
		res, err := diff.Bisect(spec, specB, diff.BisectOptions{BudgetPS: budget, GridEvery: *bisectGrid})
		if err != nil {
			fatalf("bisect: %v", err)
		}
		if err := res.WriteJSON(os.Stdout); err != nil {
			fatalf("bisect: %v", err)
		}
		if res.DivergedAt >= 0 {
			fmt.Fprintf(os.Stderr, "bisect: %s vs %s diverge at central cycle %d (%d grid points, %d bisect steps)\n",
				spec.Name(), specB.Name(), res.DivergedAt, res.GridPoints, res.Steps)
		} else {
			fmt.Fprintf(os.Stderr, "bisect: %s vs %s never diverged (agreed through cycle %d)\n",
				spec.Name(), specB.Name(), res.AgreeCycle)
		}
		return
	}
	var p *platform.Platform
	var capture *tracecap.Capture
	if *restoreFile != "" {
		// The checkpoint carries the observability configuration: Restore
		// re-applies capture/attribution as they were at snapshot time, so
		// the CLI's own enable flags do not apply here.
		f, err := os.Open(*restoreFile)
		if err != nil {
			fatalf("restore: %v", err)
		}
		p, err = platform.Restore(spec, f)
		f.Close()
		if err != nil {
			fatalf("restore: %v", err)
		}
		capture = p.Capture()
		if (*captureFile != "" || *chromeFile != "") && capture == nil {
			fatalf("checkpoint %s was taken without transaction capture; re-checkpoint a run that had -capture or -chrome-trace", *restoreFile)
		}
		fmt.Fprintf(os.Stderr, "restored %s at central cycle %d\n", *restoreFile, p.ResumedCycles())
	} else {
		p, err = platform.Build(spec)
		if err != nil {
			fatalf("build: %v", err)
		}
		if *captureFile != "" || *chromeFile != "" {
			capture = tracecap.NewCapture(spec.Name(), 0)
			p.AttachCapture(capture)
		}
		if *attrTop > 0 {
			*attrOn = true
		}
		if *attrOn {
			// Retention (the per-transaction phase log behind the Chrome-trace
			// sub-slices) is only paid for when a trace will be written.
			retain := 0
			if *chromeFile != "" {
				retain = 4096
			}
			p.EnableAttribution(retain)
		}
	}
	// Telemetry attaches on both the fresh-build and restore paths: the
	// collector is not part of a checkpoint (it observes, never simulates),
	// so a restored run re-enables it here and snapshots at exactly the
	// cadence instants the uninterrupted run would. Each output flag
	// streams the same records in its own encoding, and -chrome-trace
	// renders them as counter tracks after the run.
	type stream struct {
		flag, path string
		enc        telemetry.Encoding
		f          *os.File
		s          *telemetry.Streamer
	}
	streams := []*stream{
		{flag: "telemetry", path: *telemetryFile, enc: telemetry.NDJSON},
		{flag: "trace", path: *traceFile, enc: telemetry.CSV},
		{flag: "vcd", path: *vcdFile, enc: telemetry.VCD},
	}
	if *telemetryFile != "" || *traceFile != "" || *vcdFile != "" || *liveAddr != "" || *chromeFile != "" {
		col := p.EnableTelemetry(*telemetryEvery, 0)
		for _, st := range streams {
			if st.path == "" {
				continue
			}
			f, err := os.Create(st.path)
			if err != nil {
				fatalf("%s: %v", st.flag, err)
			}
			st.f = f
			st.s = telemetry.NewStreamer(f, col, st.enc)
			st.s.Start()
		}
		if *liveAddr != "" {
			ln, err := net.Listen("tcp", *liveAddr)
			if err != nil {
				fatalf("live: %v", err)
			}
			go http.Serve(ln, telemetry.NewServer(col).Handler())
			fmt.Fprintf(os.Stderr, "live telemetry on http://%s (/metrics /events /progress)\n", ln.Addr())
		}
	}
	if *checkpointFile != "" {
		if p.RunToCycle(*checkpointAt, budget) {
			f, err := os.Create(*checkpointFile)
			if err != nil {
				fatalf("checkpoint: %v", err)
			}
			err = p.Snapshot(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatalf("checkpoint: %v", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s at central cycle %d\n", *checkpointFile, p.CentralClk.Cycles())
		} else {
			fmt.Fprintf(os.Stderr, "mpsocsim: warning: run ended before cycle %d; no checkpoint written\n", *checkpointAt)
		}
	}
	r := p.Run(budget)
	for _, st := range streams {
		if st.s == nil {
			continue
		}
		if err := st.s.Close(); err != nil {
			fatalf("%s: %v", st.flag, err)
		}
		if n := st.s.Skipped(); n > 0 {
			fmt.Fprintf(os.Stderr,
				"mpsocsim: warning: telemetry ring overflowed, %d oldest records lost from %s — raise -telemetry-every\n", n, st.path)
		}
		if err := st.f.Close(); err != nil {
			fatalf("%s: %v", st.flag, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s: %d telemetry records\n", st.path, st.s.Written())
	}
	switch {
	case *diffFile != "":
		// The baseline is side A, this run side B, so deltas read as "what
		// this run changed". The document replaces the text summary on stdout.
		base, err := diff.ReadReportFile(*diffFile)
		if err != nil {
			fatalf("diff: %v", err)
		}
		rep := r.Report()
		if err := diff.Reports(base, &rep, *diffFile, "").WriteJSON(os.Stdout); err != nil {
			fatalf("diff: %v", err)
		}
	case *diffStreamFile != "":
		// The streamer closed above, so the fresh stream is complete on disk.
		d, err := diff.StreamFiles(*diffStreamFile, *telemetryFile)
		if err != nil {
			fatalf("diff-stream: %v", err)
		}
		if err := d.WriteJSON(os.Stdout); err != nil {
			fatalf("diff-stream: %v", err)
		}
	default:
		if err := r.WriteSummary(os.Stdout); err != nil {
			fatalf("report: %v", err)
		}
	}
	if *attrTop > 0 && r.Attribution != nil {
		if err := writeAttrTop(os.Stderr, r.Attribution, *attrTop); err != nil {
			fatalf("attr-top: %v", err)
		}
	}
	if capture != nil && *captureFile != "" {
		tr := capture.Trace()
		if err := tr.WriteFile(*captureFile); err != nil {
			fatalf("capture: %v", err)
		}
		msg := ""
		if tr.Truncated() {
			msg = " (TRUNCATED: stream event cap hit)"
		}
		fmt.Fprintf(os.Stderr, "wrote %s: %d events across %d initiators%s\n",
			*captureFile, tr.Events(), len(tr.Streams), msg)
	}
	if *reportFile != "" {
		f, err := os.Create(*reportFile)
		if err != nil {
			fatalf("report: %v", err)
		}
		defer f.Close()
		if err := r.WriteJSON(f); err != nil {
			fatalf("report: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *reportFile)
	}
	if *chromeFile != "" {
		f, err := os.Create(*chromeFile)
		if err != nil {
			fatalf("chrome-trace: %v", err)
		}
		defer f.Close()
		col := p.Telemetry()
		recs, _ := col.Drain(0)
		if n := col.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr,
				"mpsocsim: warning: telemetry ring overflowed, the counter tracks of %s lost their %d oldest records — raise -telemetry-every\n", *chromeFile, n)
		}
		if err := telemetry.WriteChromeTrace(f, capture.Trace(), recs, p.Attribution()); err != nil {
			fatalf("chrome-trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (load in ui.perfetto.dev)\n", *chromeFile)
	}
	// Both non-drained outcomes dump the run-health forensics, independent
	// of -telemetry/-live: the report reads state every run keeps (each
	// initiator's in-flight set, the watchdog's counter baselines) and every
	// checkpoint carries, so a wedged overnight run explains itself without
	// a re-run, restored or not.
	switch {
	case r.Stalled:
		fmt.Fprintf(os.Stderr,
			"mpsocsim: DEADLOCK: no transaction issued or completed over the watchdog window at %.3f ms simulated (issued=%d completed=%d) — the configuration stalled, not the budget\n\n",
			r.ExecMS(), r.Issued, r.Completed)
		p.StallReport("progress watchdog fired: no transaction moved for 200000 central cycles", 10).Write(os.Stderr)
		os.Exit(exitStalled)
	case !r.Done:
		fmt.Fprintf(os.Stderr,
			"mpsocsim: run did not drain within the %v ms budget (issued=%d completed=%d) — raise -budget or lower scale\n\n",
			*budgetMS, r.Issued, r.Completed)
		p.StallReport(fmt.Sprintf("simulated-time budget (%v ms) exhausted with work in flight", *budgetMS), 10).Write(os.Stderr)
		os.Exit(exitOverBudget)
	}
}

// loadSpec returns the spec of the spec file at path (DefaultSpec when path
// is empty) with the key=value pairs applied in order.
func loadSpec(path string, sets []string) (platform.Spec, error) {
	spec := platform.DefaultSpec()
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return spec, err
		}
		spec, err = platform.ParseSpec(f)
		f.Close()
		if err != nil {
			return spec, fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, kv := range sets {
		key, val, _ := strings.Cut(kv, "=")
		if err := platform.SetKey(&spec, key, val); err != nil {
			return spec, fmt.Errorf("-set %s: %w", kv, err)
		}
	}
	return spec, nil
}

// writeAttrTop renders the -attr-top bottleneck view: the n heaviest
// initiators by total attributed latency with their dominant phase, then the
// full phase breakdown of the heaviest one.
func writeAttrTop(w io.Writer, snap *attr.Snapshot, n int) error {
	rows := snap.Dominant()
	if n < len(rows) {
		rows = rows[:n]
	}
	fmt.Fprintf(w, "latency attribution: %d finished / %d started transactions\n",
		snap.Finished, snap.Started)
	tbl := stats.NewTable("initiator", "txns", "total_us", "mean_ns", "p50_ns", "p99_ns", "dominant_phase", "share")
	for _, is := range rows {
		share := 0.0
		for _, ph := range is.Phases {
			if ph.Phase == is.Dominant {
				share = ph.Share
			}
		}
		tbl.AddRow(is.Initiator, fmt.Sprint(is.Transactions),
			fmt.Sprintf("%.1f", float64(is.TotalPS)/1e6),
			fmt.Sprintf("%.1f", is.MeanPS/1e3),
			fmt.Sprintf("%.1f", float64(is.P50PS)/1e3),
			fmt.Sprintf("%.1f", float64(is.P99PS)/1e3),
			is.Dominant,
			fmt.Sprintf("%.0f%%", 100*share))
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	top := rows[0]
	fmt.Fprintf(w, "\nphase breakdown of %s:\n", top.Initiator)
	ptbl := stats.NewTable("phase", "n", "total_us", "mean_ns", "p99_ns", "share")
	for _, ph := range top.Phases {
		ptbl.AddRow(ph.Phase, fmt.Sprint(ph.N),
			fmt.Sprintf("%.1f", float64(ph.TotalPS)/1e6),
			fmt.Sprintf("%.1f", ph.MeanPS/1e3),
			fmt.Sprintf("%.1f", float64(ph.P99PS)/1e3),
			fmt.Sprintf("%.0f%%", 100*ph.Share))
	}
	return ptbl.Write(w)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpsocsim: "+format+"\n", args...)
	os.Exit(1)
}

// usagef reports a contradictory flag combination and exits with the
// conventional usage status (2), pointing at -h for the full flag reference.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpsocsim: usage error: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run mpsocsim -h for the full flag reference")
	os.Exit(exitUsage)
}
