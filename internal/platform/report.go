package platform

import (
	"encoding/json"
	"io"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/bridge"
	mpio "mpsocsim/internal/io"
	"mpsocsim/internal/iptg"
	"mpsocsim/internal/lmi"
	"mpsocsim/internal/metrics"
)

// ReportSchema identifies the JSON run-report layout. Consumers must check
// it before interpreting the rest of the document. The version is bumped
// when a field changes meaning or disappears; purely additive changes keep
// it.
//
// /2 added the optional "attribution" section (per-initiator × per-phase
// latency breakdown) and the timeline "dropped" counters; every /1 field is
// unchanged. The optional "deadlines" section (I/O deadline accounting), the
// spec's io_* fields and its lmi_sdram_cas are additive to /2. /3 removed
// the metrics snapshot's "timelines": the same gauges are in the telemetry
// records (-telemetry, -trace, -vcd), at the -telemetry-every cadence; every
// other /2 field is unchanged.
const ReportSchema = "mpsocsim.report/3"

// SpecReport is the JSON-stable description of the run's configuration: the
// knobs that determine the run, flattened to plain values. A replay spec is
// described by its mode and stream names — the recorded events themselves
// are the run's *input* and would dwarf the report.
type SpecReport struct {
	Platform string `json:"platform"`
	Protocol string `json:"protocol"`
	Topology string `json:"topology"`
	Memory   string `json:"memory"`

	STBusType            string  `json:"stbus_type,omitempty"`
	LMISDRAMCAS          int     `json:"lmi_sdram_cas,omitempty"`
	MaxOutstanding       int     `json:"max_outstanding"`
	TargetRespDepth      int     `json:"target_resp_depth"`
	SplitLMIBridge       bool    `json:"split_lmi_bridge,omitempty"`
	NoMessageArbitration bool    `json:"no_message_arbitration,omitempty"`
	BridgeLatency        int     `json:"bridge_latency,omitempty"`
	OnChipWaitStates     int     `json:"onchip_wait_states,omitempty"`
	WithDSP              bool    `json:"with_dsp,omitempty"`
	DSPDCacheKB          int     `json:"dsp_dcache_kb,omitempty"`
	DSPWorkingSetKB      int     `json:"dsp_working_set_kb,omitempty"`
	WorkloadScale        float64 `json:"workload_scale"`
	OutstandingOverride  int     `json:"outstanding_override,omitempty"`
	ForceNonPostedWrites bool    `json:"force_non_posted_writes,omitempty"`
	TwoPhase             bool    `json:"two_phase,omitempty"`
	Seed                 uint64  `json:"seed"`

	Replay        bool     `json:"replay,omitempty"`
	ReplayMode    string   `json:"replay_mode,omitempty"`
	ReplayStreams []string `json:"replay_streams,omitempty"`

	IO                bool  `json:"io,omitempty"`
	IODMADescriptors  int   `json:"io_dma_descriptors,omitempty"`
	IODMABurstBeats   int   `json:"io_dma_burst_beats,omitempty"`
	IOIRQAgents       int   `json:"io_irq_agents,omitempty"`
	IOIRQPeriodCycles int64 `json:"io_irq_period_cycles,omitempty"`
	IOIRQDeadline     int64 `json:"io_irq_deadline_cycles,omitempty"`
	IOIRQEvents       int   `json:"io_irq_events,omitempty"`
	IOAllocOps        int   `json:"io_alloc_ops,omitempty"`
}

// DSPReport is the core's slice of the report.
type DSPReport struct {
	Cycles int64   `json:"cycles"`
	CPI    float64 `json:"cpi"`
}

// Report is the full machine-readable run report: the schema version, the
// flattened spec, the run outcome, the per-subsystem statistics the text
// summary prints, and the complete metrics snapshot (the final value of
// every registered counter, gauge and histogram).
type Report struct {
	Schema        string     `json:"schema"`
	Spec          SpecReport `json:"spec"`
	Done          bool       `json:"done"`
	Stalled       bool       `json:"stalled,omitempty"`
	ExecPS        int64      `json:"exec_ps"`
	CentralCycles int64      `json:"central_cycles"`
	// ResumedFromCycle is the central-clock cycle the run was restored from
	// a checkpoint at; absent for a run started from scratch. Additive to
	// report/2 — every other field keeps its meaning (cumulative figures
	// still cover the whole run from cycle 0).
	ResumedFromCycle int64                        `json:"resumed_from_cycle,omitempty"`
	Issued           int64                        `json:"issued"`
	Completed        int64                        `json:"completed"`
	TotalBytes       int64                        `json:"total_bytes"`
	ThroughputMBps   float64                      `json:"throughput_mbps"`
	MemUtilization   float64                      `json:"mem_utilization"`
	LMI              *lmi.Stats                   `json:"lmi,omitempty"`
	DSP              *DSPReport                   `json:"dsp,omitempty"`
	IPs              map[string][]iptg.AgentStats `json:"ips"`
	// Deadlines is the per-device deadline accounting of the interrupt-driven
	// I/O agents, present when the I/O subsystem is enabled. Additive to
	// report/2.
	Deadlines []mpio.DeadlineStats    `json:"deadlines,omitempty"`
	Bridges   map[string]bridge.Stats `json:"bridges,omitempty"`
	Metrics   *metrics.Snapshot       `json:"metrics,omitempty"`
	// Attribution is the per-initiator × per-phase latency breakdown,
	// present when the run was executed with attribution enabled.
	Attribution *attr.Snapshot `json:"attribution,omitempty"`
}

// Report assembles the schema-versioned run report from the result.
func (r Result) Report() Report {
	s := r.Spec
	sr := SpecReport{
		Platform:             s.Name(),
		Protocol:             s.Protocol.String(),
		Topology:             s.Topology.String(),
		Memory:               s.Memory.String(),
		MaxOutstanding:       s.MaxOutstanding,
		TargetRespDepth:      s.TargetRespDepth,
		SplitLMIBridge:       s.SplitLMIBridge,
		NoMessageArbitration: s.NoMessageArbitration,
		BridgeLatency:        s.BridgeLatency,
		OnChipWaitStates:     s.OnChipWaitStates,
		WithDSP:              s.WithDSP,
		DSPDCacheKB:          s.DSPDCacheKB,
		DSPWorkingSetKB:      s.DSPWorkingSetKB,
		WorkloadScale:        s.WorkloadScale,
		OutstandingOverride:  s.OutstandingOverride,
		ForceNonPostedWrites: s.ForceNonPostedWrites,
		TwoPhase:             s.TwoPhase,
		Seed:                 s.Seed,
	}
	if s.Protocol == STBus {
		sr.STBusType = s.STBusType.String()
	}
	if s.Memory == LMIDDR {
		sr.LMISDRAMCAS = s.LMI.SDRAM.Timing.TCAS
	}
	if s.Replay != nil {
		sr.Replay = true
		sr.ReplayMode = s.ReplayMode.String()
		sr.ReplayStreams = s.Replay.StreamNames()
	}
	if s.IO.Enable {
		prm := s.IO.effective(s.WorkloadScale)
		sr.IO = true
		if prm.dma {
			sr.IODMADescriptors = prm.dmaDescriptors
			sr.IODMABurstBeats = prm.dmaBurstBeats
		}
		sr.IOIRQAgents = prm.irqAgents
		if prm.irqAgents > 0 {
			sr.IOIRQPeriodCycles = prm.irqPeriod
			sr.IOIRQDeadline = prm.irqDeadline
			sr.IOIRQEvents = prm.irqEvents
		}
		if prm.alloc {
			sr.IOAllocOps = prm.allocOps
		}
	}
	rep := Report{
		Schema:           ReportSchema,
		Spec:             sr,
		Done:             r.Done,
		Stalled:          r.Stalled,
		ExecPS:           r.ExecPS,
		CentralCycles:    r.CentralCycles,
		ResumedFromCycle: r.ResumedFromCycle,
		Issued:           r.Issued,
		Completed:        r.Completed,
		TotalBytes:       r.TotalBytes,
		ThroughputMBps:   r.ThroughputMBps(),
		MemUtilization:   r.MemUtilization,
		IPs:              r.IPs,
		Deadlines:        r.Deadlines,
		Bridges:          r.Bridges,
		Metrics:          r.Metrics,
		Attribution:      r.Attribution,
	}
	if r.Spec.Memory == LMIDDR {
		l := r.LMI
		rep.LMI = &l
	}
	if r.DSP.Present {
		rep.DSP = &DSPReport{Cycles: r.DSP.Cycles, CPI: r.DSP.CPI}
	}
	return rep
}

// WriteJSON renders the run report as indented JSON. Map keys serialize in
// sorted order and instruments enumerate in registration order, so two
// identical runs produce byte-identical documents.
func (r Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Report())
}
