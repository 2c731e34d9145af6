package experiments

import (
	"fmt"
	"io"

	"mpsocsim/internal/attr"
	mpio "mpsocsim/internal/io"
	"mpsocsim/internal/platform"
	"mpsocsim/internal/runner"
	"mpsocsim/internal/stats"
)

// IORow is one IRQ device on one protocol in the deadline comparison:
// deadline accounting with the DMA burst storm off vs on. Service figures are
// in I/O-clock cycles (125 MHz, 8 ns each).
type IORow struct {
	Protocol   string
	Device     string
	Deadline   int64
	Events     int64
	MissedOff  int64
	MissedOn   int64
	MeanSvcOff float64
	MeanSvcOn  float64
	P90SvcOff  int64
	P90SvcOn   int64
}

// IOPhaseRow is one phase of the interrupt-service attribution breakdown:
// mean ns per IRQ transaction spent in the phase, storm off vs on, indexed
// like IOResult.Protocols.
type IOPhaseRow struct {
	Phase string
	OffNS []float64
	OnNS  []float64
}

// IOResult is the I/O deadline experiment: per-device deadline misses and
// per-phase attribution of the interrupt-service path, with and without a
// concurrent DMA burst storm, across all three protocols.
type IOResult struct {
	Protocols []string
	Rows      []IORow
	PhaseRows []IOPhaseRow
	// E2EOff/E2EOn are the end-to-end mean ns per IRQ transaction per
	// protocol; the phase rows sum to them (conservation).
	E2EOff []float64
	E2EOn  []float64
}

// ioRun is one platform run's reduction: the deadline table and the
// attribution snapshot.
type ioRun struct {
	deadlines []mpio.DeadlineStats
	attrib    *attr.Snapshot
}

// ioJob runs one I/O-enabled platform with attribution and reduces the result
// to its deadline table and attribution snapshot. Deadline-miss conservation
// (met + missed == serviced == raised) is asserted here so a bookkeeping bug
// fails the experiment instead of skewing the table.
func ioJob(name string, spec platform.Spec) runner.Job[ioRun] {
	return runner.Job[ioRun]{Name: name, Run: func() (ioRun, error) {
		p, err := platform.Build(spec)
		if err != nil {
			return ioRun{}, err
		}
		p.EnableAttribution(0)
		r := p.Run(Budget)
		if !r.Done {
			return ioRun{}, fmt.Errorf("%s did not drain within budget", spec.Name())
		}
		for _, ds := range r.Deadlines {
			if ds.Met+ds.Missed != ds.Serviced || ds.Serviced != ds.Raised {
				return ioRun{}, fmt.Errorf("%s %s: deadline accounting broken (raised=%d serviced=%d met=%d missed=%d)",
					spec.Name(), ds.Device, ds.Raised, ds.Serviced, ds.Met, ds.Missed)
			}
		}
		return ioRun{deadlines: r.Deadlines, attrib: r.Attribution}, nil
	}}
}

// irqPhaseMeans reduces a snapshot to the mean per-transaction time per phase
// (ns) over the interrupt-service initiators only — the path whose deadlines
// the experiment tracks.
func irqPhaseMeans(s *attr.Snapshot, devices map[string]bool) (map[string]float64, float64) {
	var txns, e2e int64
	totals := map[string]int64{}
	for _, is := range s.Initiators {
		if !devices[is.Initiator] {
			continue
		}
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

// IODeadlines runs the I/O deadline experiment: on each protocol's
// distributed LMI platform, interrupt-driven device agents service periodic
// events against a deadline, first with the DMA engine disabled (storm off)
// and then with its descriptor-chain burst storm competing for the same
// SDRAM (storm on). The deadline table shows how many events each device
// misses under the storm per fabric; the attribution table localizes the
// damage — which phase of the interrupt-service path (arbitration, bridge,
// LMI queue, SDRAM) absorbed the stolen bandwidth.
func IODeadlines(o Options) (IOResult, error) {
	o.normalize()
	protos := []struct {
		name  string
		proto platform.Protocol
	}{
		{"STBus", platform.STBus},
		{"AHB", platform.AHB},
		{"AXI", platform.AXI},
	}
	mk := func(proto platform.Protocol, storm bool) runner.Job[ioRun] {
		s := baseSpec(o)
		s.Protocol, s.Topology, s.Memory = proto, platform.Distributed, platform.LMIDDR
		s.IO.Enable = true
		if !storm {
			s.IO.DMADescriptors = -1 // storm off: devices + allocator only
		}
		label := "off"
		if storm {
			label = "storm"
		}
		return ioJob(fmt.Sprintf("%s/%s", proto, label), s)
	}
	var jobs []runner.Job[ioRun]
	for _, pr := range protos {
		jobs = append(jobs, mk(pr.proto, false), mk(pr.proto, true))
	}
	runs, err := runner.Values(runner.Map(jobs, o.pool("io")))
	if err != nil {
		return IOResult{}, err
	}

	out := IOResult{}
	devices := map[string]bool{}
	offMeans := make([]map[string]float64, len(protos))
	onMeans := make([]map[string]float64, len(protos))
	for i, pr := range protos {
		off, on := runs[2*i], runs[2*i+1]
		out.Protocols = append(out.Protocols, pr.name)
		if len(off.deadlines) != len(on.deadlines) {
			return IOResult{}, fmt.Errorf("%s: device count differs between storm-off (%d) and storm-on (%d)",
				pr.name, len(off.deadlines), len(on.deadlines))
		}
		for j, ds := range on.deadlines {
			base := off.deadlines[j]
			devices[ds.Device] = true
			out.Rows = append(out.Rows, IORow{
				Protocol:   pr.name,
				Device:     ds.Device,
				Deadline:   ds.DeadlineCycles,
				Events:     ds.Raised,
				MissedOff:  base.Missed,
				MissedOn:   ds.Missed,
				MeanSvcOff: base.MeanSvcCycles,
				MeanSvcOn:  ds.MeanSvcCycles,
				P90SvcOff:  base.P90SvcCycles,
				P90SvcOn:   ds.P90SvcCycles,
			})
		}
		var offE2E, onE2E float64
		offMeans[i], offE2E = irqPhaseMeans(off.attrib, devices)
		onMeans[i], onE2E = irqPhaseMeans(on.attrib, devices)
		out.E2EOff = append(out.E2EOff, offE2E)
		out.E2EOn = append(out.E2EOn, onE2E)
	}
	for _, ph := range attr.PhaseNames() {
		row := IOPhaseRow{Phase: ph}
		any := false
		for i := range protos {
			off, on := offMeans[i][ph], onMeans[i][ph]
			row.OffNS = append(row.OffNS, off)
			row.OnNS = append(row.OnNS, on)
			any = any || off > 0 || on > 0
		}
		if any {
			out.PhaseRows = append(out.PhaseRows, row)
		}
	}
	return out, nil
}

// Write renders the deadline and attribution tables.
func (r IOResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "== I/O deadlines under a DMA burst storm ==")
	fmt.Fprintln(w, "Interrupt-driven devices service periodic events against a deadline (I/O")
	fmt.Fprintln(w, "cycles, 125 MHz) while a descriptor-chain DMA engine floods the same LMI/SDRAM")
	fmt.Fprintln(w, "with bursts. Expected shape: the storm widens the service tail everywhere,")
	fmt.Fprintln(w, "but how many deadlines die depends on the fabric — message-granularity")
	fmt.Fprintln(w, "arbitration keeps the interrupt path's short bursts from being starved by")
	fmt.Fprintln(w, "the storm's long ones.")
	fmt.Fprintln(w)
	dtbl := stats.NewTable("protocol", "device", "deadline", "events",
		"miss_off", "miss_storm", "d_miss", "svc_off", "svc_storm", "p90_off", "p90_storm")
	for _, row := range r.Rows {
		dtbl.AddRow(row.Protocol, row.Device,
			fmt.Sprint(row.Deadline), fmt.Sprint(row.Events),
			fmt.Sprint(row.MissedOff), fmt.Sprint(row.MissedOn),
			fmt.Sprintf("%+d", row.MissedOn-row.MissedOff),
			fmt.Sprintf("%.1f", row.MeanSvcOff), fmt.Sprintf("%.1f", row.MeanSvcOn),
			fmt.Sprint(row.P90SvcOff), fmt.Sprint(row.P90SvcOn))
	}
	if err := dtbl.Write(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Interrupt-service attribution: mean ns per IRQ transaction per phase,")
	fmt.Fprintln(w, "storm off vs on. The d_ columns localize each fabric's missed deadlines to")
	fmt.Fprintln(w, "the phase that absorbed the storm.")
	fmt.Fprintln(w)
	cols := []string{"phase"}
	for _, p := range r.Protocols {
		cols = append(cols, p+"_off", "d_"+p)
	}
	ptbl := stats.NewTable(cols...)
	addRow := func(name string, off, on []float64) {
		row := []string{name}
		for i := range off {
			row = append(row, fmt.Sprintf("%.1f", off[i]), fmt.Sprintf("%+.1f", on[i]-off[i]))
		}
		ptbl.AddRow(row...)
	}
	for _, pr := range r.PhaseRows {
		addRow(pr.Phase, pr.OffNS, pr.OnNS)
	}
	addRow("end_to_end", r.E2EOff, r.E2EOn)
	if err := ptbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}
