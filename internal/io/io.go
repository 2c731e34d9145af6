// Package io models the third pillar of the paper's title — the I/O
// subsystem — as live platform initiators: a descriptor-chain DMA engine
// (linked descriptors fetched from memory, programmable burst length,
// scatter/gather source/destination windows, completion writeback), an
// interrupt-driven device agent (periodic jittered events raising an IRQ
// line, service latency measured from the raise to the final drain beat,
// per-event deadline tracking), and a software heap-allocator traffic source
// (malloc/free metadata + payload-touch pattern, after Villa et al.'s
// dynamic-memory co-simulation).
//
// All three implement the platform.Initiator surface shared with
// iptg.Generator and replay.Initiator and, like them, embed iptg.Issuer: it
// owns the bus.InitiatorPort, mints and recycles requests through the
// platform pool, stamps IssuePS for latency attribution, closes probe events
// and attribution records at final-beat consumption, books the "ip.<name>.*"
// statistics and encodes all of that in each section codec. Each initiator
// keeps only its own state machine: what to issue next (at most one
// transaction per cycle), when to sleep, and its "io.*" instruments — so
// they compose with every fabric, capture/replay, attribution, metrics and
// checkpoint/restore like any other initiator (DESIGN.md §17).
package io

import "mpsocsim/internal/stats"

// DeadlineStats is one device agent's deadline accounting: how many events
// were raised and serviced, how many met or missed the deadline, and the
// shape of the raise-to-final-drain-beat service latency (agent-clock
// cycles). Met+Missed == Serviced always (conservation); Serviced trails
// Raised only while events are still pending.
type DeadlineStats struct {
	Device         string  `json:"device"`
	DeadlineCycles int64   `json:"deadline_cycles"`
	Raised         int64   `json:"raised"`
	Serviced       int64   `json:"serviced"`
	Met            int64   `json:"met"`
	Missed         int64   `json:"missed"`
	PendingMax     int64   `json:"pending_max"`
	MinSvcCycles   int64   `json:"min_svc_cycles"`
	MeanSvcCycles  float64 `json:"mean_svc_cycles"`
	MaxSvcCycles   int64   `json:"max_svc_cycles"`
	P50SvcCycles   int64   `json:"p50_svc_cycles"`
	P90SvcCycles   int64   `json:"p90_svc_cycles"`
}

// DeadlineTracker is implemented by initiators that track per-event service
// deadlines (the Device agent). The platform collects one DeadlineStats row
// per tracker into the run result's "deadlines" section.
type DeadlineTracker interface {
	DeadlineStats() DeadlineStats
}

// deadlineStats assembles the exported row from a device's counters.
func deadlineStats(name string, deadline, raised, serviced, met, missed, pendingMax int64, svc *stats.Histogram) DeadlineStats {
	ds := DeadlineStats{
		Device:         name,
		DeadlineCycles: deadline,
		Raised:         raised,
		Serviced:       serviced,
		Met:            met,
		Missed:         missed,
		PendingMax:     pendingMax,
	}
	if svc.N() > 0 {
		ds.MinSvcCycles = svc.Min()
		ds.MeanSvcCycles = svc.Mean()
		ds.MaxSvcCycles = svc.Max()
		ds.P50SvcCycles = svc.Quantile(0.5)
		ds.P90SvcCycles = svc.Quantile(0.9)
	}
	return ds
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
