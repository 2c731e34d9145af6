package experiments

import (
	"fmt"
	"io"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/platform"
	"mpsocsim/internal/runner"
	"mpsocsim/internal/stats"
)

// AttrRow is one phase of the cross-protocol attribution comparison: the
// mean per-transaction time spent in the phase on each platform instance,
// and the deltas against the STBus reference.
type AttrRow struct {
	Phase string
	// MeanNS holds the per-protocol mean time per transaction in
	// nanoseconds, indexed like AttrResult.Protocols.
	MeanNS []float64
}

// AttrResult is the latency-attribution comparison of the paper's reference
// platform (distributed STBus + LMI) against the AHB and AXI instances under
// the same workload: where each protocol's transactions spend their time,
// phase by phase.
type AttrResult struct {
	Protocols []string
	Rows      []AttrRow
	// E2E is the end-to-end mean per transaction (ns) per protocol; the
	// phase rows sum to it (conservation).
	E2E []float64
}

// attrJob runs one platform with attribution enabled and reduces the result
// to its attribution snapshot.
func attrJob(name string, spec platform.Spec) runner.Job[*attr.Snapshot] {
	return runner.Job[*attr.Snapshot]{Name: name, Run: func() (*attr.Snapshot, error) {
		p, err := platform.Build(spec)
		if err != nil {
			return nil, err
		}
		p.EnableAttribution(0)
		r := p.Run(Budget)
		if !r.Done {
			return nil, fmt.Errorf("%s did not drain within budget", spec.Name())
		}
		return r.Attribution, nil
	}}
}

// phaseMeans reduces a snapshot to the platform-wide mean per-transaction
// time per phase (ns) plus the end-to-end mean, aggregated over every
// initiator row.
func phaseMeans(s *attr.Snapshot) (map[string]float64, float64) {
	var txns, e2e int64
	totals := map[string]int64{}
	for _, is := range s.Initiators {
		txns += is.Transactions
		e2e += is.TotalPS
		for _, ph := range is.Phases {
			totals[ph.Phase] += ph.TotalPS
		}
	}
	means := make(map[string]float64, len(totals))
	if txns == 0 {
		return means, 0
	}
	for ph, total := range totals {
		means[ph] = float64(total) / float64(txns) / 1e3
	}
	return means, float64(e2e) / float64(txns) / 1e3
}

// AttrComparison runs the distributed LMI platform on all three protocols
// with latency attribution enabled and tabulates where the mean transaction
// spends its time on each — the paper's bridge-cost argument (§3.2, §4.2)
// made quantitative: the AHB/AXI deltas against STBus localize the slowdown
// to specific phases (initiator-queue backup and arbitration wait behind the
// serialized layers and blocking bridges) rather than one end-to-end number.
func AttrComparison(o Options) (AttrResult, error) {
	o.normalize()
	mk := func(name string, proto platform.Protocol) runner.Job[*attr.Snapshot] {
		s := baseSpec(o)
		s.Protocol, s.Topology, s.Memory = proto, platform.Distributed, platform.LMIDDR
		return attrJob(name, s)
	}
	snaps, err := runner.Values(runner.Map([]runner.Job[*attr.Snapshot]{
		mk("STBus", platform.STBus),
		mk("AHB", platform.AHB),
		mk("AXI", platform.AXI),
	}, o.pool("attr")))
	if err != nil {
		return AttrResult{}, err
	}
	out := AttrResult{Protocols: []string{"STBus", "AHB", "AXI"}}
	means := make([]map[string]float64, len(snaps))
	for i, s := range snaps {
		var e2e float64
		means[i], e2e = phaseMeans(s)
		out.E2E = append(out.E2E, e2e)
	}
	for _, ph := range attr.PhaseNames() {
		row := AttrRow{Phase: ph}
		any := false
		for i := range snaps {
			m := means[i][ph]
			row.MeanNS = append(row.MeanNS, m)
			any = any || m > 0
		}
		if any {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Write renders the comparison.
func (r AttrResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "== Latency attribution — where the mean transaction spends its time ==")
	fmt.Fprintln(w, "Mean ns per transaction per phase, distributed LMI platform, all protocols")
	fmt.Fprintln(w, "under the same workload. Expected shape: the AHB/AXI deltas concentrate in")
	fmt.Fprintln(w, "init_queue and arb_wait — transactions backing up behind the serialized")
	fmt.Fprintln(w, "layers and blocking bridges — while the memory-side phases (lmi_*, sdram_*)")
	fmt.Fprintln(w, "barely move: the interconnect, not the memory, is what the protocol changes.")
	fmt.Fprintln(w)
	cols := []string{"phase"}
	for _, p := range r.Protocols {
		cols = append(cols, p+"_ns")
	}
	for _, p := range r.Protocols[1:] {
		cols = append(cols, "d_"+p)
	}
	tbl := stats.NewTable(cols...)
	addRow := func(name string, vals []float64) {
		row := []string{name}
		for _, v := range vals {
			row = append(row, fmt.Sprintf("%.1f", v))
		}
		for _, v := range vals[1:] {
			row = append(row, fmt.Sprintf("%+.1f", v-vals[0]))
		}
		tbl.AddRow(row...)
	}
	for _, pr := range r.Rows {
		addRow(pr.Phase, pr.MeanNS)
	}
	addRow("end_to_end", r.E2E)
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}
