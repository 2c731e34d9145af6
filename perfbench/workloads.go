package main

import (
	"bytes"
	"fmt"
	"time"

	"mpsocsim/internal/diff"
	"mpsocsim/internal/platform"
	"mpsocsim/internal/replay"
	"mpsocsim/internal/telemetry"
	"mpsocsim/internal/tracecap"
)

// budgetPS is every run's simulated-time budget (50 ms). Each workload drains
// well inside it; a run that does not is a failed job.
const budgetPS = 50e9

// Names of the timed public calls. They are the span names of a traced run
// and the layers the per-layer metrics are summed over.
const (
	callBuild     = "platform.Build"
	callCapture   = "Platform.AttachCapture"
	callAttr      = "Platform.EnableAttribution"
	callTelemetry = "Platform.EnableTelemetry"
	callRun       = "Platform.Run"
	callReport    = "Result.WriteJSON"
	callEncode    = "Trace.Encode"
	callDecode    = "tracecap.Decode"
	callDiff      = "diff.Reports"
)

// setupCalls are the calls that prepare a platform before it runs; their
// time is the setup_s metric.
var setupCalls = map[string]bool{callBuild: true, callCapture: true, callAttr: true, callTelemetry: true}

// workload is one job the benchmark repeats in a closed loop.
type workload struct {
	name string
	job  func(j *job, seed uint64) error
}

// workloads lists the benchmark's workloads; BENCHMARK.json names the same
// four and says why each is there.
var workloads = []workload{
	{
		name: "ref_lmi",
		job: func(j *job, seed uint64) error {
			_, err := j.buildRunReport(refSpec(seed), "")
			return err
		},
	},
	{
		name: "io_tail",
		job: func(j *job, seed uint64) error {
			s := refSpec(seed)
			s.IO.Enable = true
			_, err := j.buildRunReport(s, "")
			return err
		},
	},
	{
		name: "variant_sweep",
		job: func(j *job, seed uint64) error {
			for _, s := range sweepSpecs(seed) {
				if _, err := j.buildRunReport(s, ""); err != nil {
					return err
				}
			}
			return nil
		},
	},
	{
		name: "observe_replay",
		job:  observeReplay,
	},
}

// refSpec is the paper's Fig.1 reference platform at the benchmark's scale.
func refSpec(seed uint64) platform.Spec {
	s := platform.DefaultSpec()
	s.WorkloadScale = 4
	s.Seed = seed
	return s
}

// sweepSpecs is the Fig.3/Fig.5 design space: every fabric, topology and
// memory subsystem, at a scale that keeps the 12 runs near one reference run.
func sweepSpecs(seed uint64) []platform.Spec {
	var specs []platform.Spec
	for _, proto := range []platform.Protocol{platform.STBus, platform.AHB, platform.AXI} {
		for _, topo := range []platform.Topology{platform.Distributed, platform.Collapsed} {
			for _, mem := range []platform.MemoryKind{platform.OnChip, platform.LMIDDR} {
				s := platform.DefaultSpec()
				s.WorkloadScale = 0.25
				s.Seed = seed
				s.Protocol, s.Topology, s.Memory = proto, topo, mem
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// observeReplay captures the reference run with every instrument on, round-
// trips the trace through its codec, replays it in timed mode on a fresh
// platform and diffs the two reports.
func observeReplay(j *job, seed uint64) error {
	s := refSpec(seed)
	p, err := j.build(s)
	if err != nil {
		return err
	}
	var capture *tracecap.Capture
	j.call(callCapture, func() {
		capture = tracecap.NewCapture(s.Name(), 0)
		p.AttachCapture(capture)
	})
	j.call(callAttr, func() { p.EnableAttribution(0) })
	var col *telemetry.Collector
	j.call(callTelemetry, func() { col = p.EnableTelemetry(1024, 0) })
	captured, err := j.runReport(p, tagCapture)
	if err != nil {
		return err
	}
	if a := captured.Attribution; a == nil || a.Finished == 0 {
		return fmt.Errorf("attribution finished no transactions")
	}
	if col.Seq() == 0 {
		return fmt.Errorf("telemetry collected no records")
	}

	var data []byte
	j.call(callEncode, func() { data = capture.Trace().Encode() })
	j.traceBytes = int64(len(data))
	var decoded *tracecap.Trace
	j.call(callDecode, func() { decoded, err = tracecap.Decode(data) })
	if err != nil {
		return fmt.Errorf("decode captured trace: %w", err)
	}

	rs := s
	rs.Replay = decoded
	rs.ReplayMode = replay.Timed
	replayed, err := j.buildRunReport(rs, tagReplay)
	if err != nil {
		return err
	}
	if replayed.CentralCycles != captured.CentralCycles {
		return fmt.Errorf("timed replay ran %d cycles, capture %d", replayed.CentralCycles, captured.CentralCycles)
	}

	j.call(callDiff, func() {
		a, b := captured.Report(), replayed.Report()
		j.out.Reset()
		err = diff.Reports(&a, &b, "capture", "replay").WriteJSON(j.out)
	})
	if err != nil {
		return fmt.Errorf("write report diff: %w", err)
	}
	return nil
}

// call is one timed public call of a job.
type call struct {
	name       string
	start, end time.Time
}

// Tags that tell the two runs of observe_replay apart.
const (
	tagCapture = "capture"
	tagReplay  = "replay"
)

// simRun is one Platform.Run of a job and what it simulated.
type simRun struct {
	// name is the spec's name plus the tag, if any; the correctness gate
	// pins runs under it.
	name, tag string
	res       platform.Result
	// dur is the host time inside Run; 0 in an untimed job.
	dur time.Duration
}

// job is one execution of a workload. It times every public call it makes
// unless it is untimed, keeps each run's result for the correctness gate, and
// writes reports into a buffer the runner reuses across jobs.
type job struct {
	id         int
	start, end time.Time
	// untimed jobs time only their whole interval, not each call.
	untimed bool
	calls   []call
	runs    []simRun
	// traceBytes is the encoded capture's size (observe_replay only).
	traceBytes int64
	out        *bytes.Buffer
}

// execute runs job id of w, writing reports into out. An untimed job records
// no calls and leaves every run's duration 0.
func execute(w workload, seed uint64, id int, untimed bool, out *bytes.Buffer) (*job, error) {
	j := &job{id: id, untimed: untimed, out: out}
	j.start = time.Now()
	err := w.job(j, seed)
	j.end = time.Now()
	return j, err
}

// call times f as one call named name; in an untimed job it only runs f.
func (j *job) call(name string, f func()) time.Duration {
	if j.untimed {
		f()
		return 0
	}
	start := time.Now()
	f()
	end := time.Now()
	j.calls = append(j.calls, call{name: name, start: start, end: end})
	return end.Sub(start)
}

func (j *job) build(s platform.Spec) (*platform.Platform, error) {
	var p *platform.Platform
	var err error
	j.call(callBuild, func() { p, err = platform.Build(s) })
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", s.Name(), err)
	}
	return p, nil
}

// runReport runs p to completion and writes its JSON report.
func (j *job) runReport(p *platform.Platform, tag string) (platform.Result, error) {
	var r platform.Result
	d := j.call(callRun, func() { r = p.Run(budgetPS) })
	name := r.Spec.Name()
	if r.Spec.IO.Enable {
		name += "+io"
	}
	if tag != "" {
		name += " " + tag
	}
	j.runs = append(j.runs, simRun{name: name, tag: tag, res: r, dur: d})
	var err error
	j.call(callReport, func() {
		j.out.Reset()
		err = r.WriteJSON(j.out)
	})
	if err != nil {
		return r, fmt.Errorf("write %s report: %w", name, err)
	}
	return r, nil
}

func (j *job) buildRunReport(s platform.Spec, tag string) (platform.Result, error) {
	p, err := j.build(s)
	if err != nil {
		return platform.Result{}, err
	}
	return j.runReport(p, tag)
}
