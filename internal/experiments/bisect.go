package experiments

import (
	"fmt"
	"io"

	"mpsocsim/internal/diff"
	mpio "mpsocsim/internal/io"
	"mpsocsim/internal/platform"
	"mpsocsim/internal/runner"
	"mpsocsim/internal/stats"
)

// BisectRow compares one IRQ device's deadline accounting between the two
// bisected variants over their full runs.
type BisectRow struct {
	Device   string
	Deadline int64
	MissedA  int64
	MissedB  int64
	P90A     int64
	P90B     int64
}

// BisectReport is the divergence-localization scenario: the STBus and AHB
// distributed-LMI platforms under the §17 DMA burst storm end the run with
// different deadline-miss totals, and the snapshot bisection pins the exact
// first central-clock cycle where the two executions stopped being
// indistinguishable — turning "AHB misses more deadlines" into "they part
// ways at cycle N, and here is the state that differs there".
type BisectReport struct {
	A, B      string
	Deadlines []BisectRow
	Result    *diff.BisectResult
}

// Bisect runs the divergence-localization experiment: one full run per
// variant supplies the deadline table, then the localization probes step
// both variants along a Snapshot/RunToCycle grid, the two variants
// advancing in parallel.
func Bisect(o Options) (BisectReport, error) {
	o.normalize()
	sa := baseSpec(o)
	sa.Protocol, sa.Topology, sa.Memory = platform.STBus, platform.Distributed, platform.LMIDDR
	sa.IO.Enable = true
	sb := sa
	sb.Protocol = platform.AHB

	job := func(name string, spec platform.Spec) runner.Job[[]mpio.DeadlineStats] {
		return runner.Job[[]mpio.DeadlineStats]{Name: name, Run: func() ([]mpio.DeadlineStats, error) {
			p, err := platform.Build(spec)
			if err != nil {
				return nil, err
			}
			r := p.Run(Budget)
			if !r.Done {
				return nil, fmt.Errorf("%s did not drain within budget", spec.Name())
			}
			return r.Deadlines, nil
		}}
	}
	runs, err := runner.Values(runner.Map([]runner.Job[[]mpio.DeadlineStats]{
		job("stbus/storm", sa), job("ahb/storm", sb),
	}, o.pool("bisect")))
	if err != nil {
		return BisectReport{}, err
	}

	out := BisectReport{A: sa.Name(), B: sb.Name()}
	db := map[string]mpio.DeadlineStats{}
	for _, ds := range runs[1] {
		db[ds.Device] = ds
	}
	for _, ds := range runs[0] {
		bds, ok := db[ds.Device]
		if !ok {
			return BisectReport{}, fmt.Errorf("device %s missing from variant B", ds.Device)
		}
		out.Deadlines = append(out.Deadlines, BisectRow{
			Device: ds.Device, Deadline: ds.DeadlineCycles,
			MissedA: ds.Missed, MissedB: bds.Missed,
			P90A: ds.P90SvcCycles, P90B: bds.P90SvcCycles,
		})
	}

	res, err := diff.Bisect(sa, sb, diff.BisectOptions{
		BudgetPS: Budget, GridEvery: 1024, Workers: o.Workers,
	})
	if err != nil {
		return BisectReport{}, err
	}
	out.Result = res
	return out, nil
}

// Write renders the bisection experiment: the end-of-run deadline
// comparison, the localized divergence cycle, and the forensics deltas at
// that instant.
func (r BisectReport) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== Divergence bisection: %s vs %s ==\n", r.A, r.B); err != nil {
		return err
	}
	fmt.Fprintln(w, "Per-device deadline accounting over the full runs (service figures in I/O cycles):")
	tbl := stats.NewTable("device", "deadline", "miss_a", "miss_b", "p90_a", "p90_b")
	for _, row := range r.Deadlines {
		tbl.AddRow(row.Device, fmt.Sprint(row.Deadline),
			fmt.Sprint(row.MissedA), fmt.Sprint(row.MissedB),
			fmt.Sprint(row.P90A), fmt.Sprint(row.P90B))
	}
	if err := tbl.Write(w); err != nil {
		return err
	}

	res := r.Result
	if res.DivergedAt < 0 {
		_, err := fmt.Fprintf(w, "\nno divergence found (states agreed through cycle %d)\n", res.AgreeCycle)
		return err
	}
	fmt.Fprintf(w, "\nfirst divergent central-clock cycle: %d (agree at %d; %d shared counters, %d shared gauges; %d grid points + %d bisect steps)\n",
		res.DivergedAt, res.AgreeCycle, res.SharedCounters, res.SharedGauges, res.GridPoints, res.Steps)

	if len(res.FirstCounters) > 0 {
		fmt.Fprintln(w, "\ncounters that first disagree (top 10 by relative delta):")
		ctbl := stats.NewTable("counter", "a", "b", "delta")
		for i, d := range res.FirstCounters {
			if i == 10 {
				break
			}
			ctbl.AddRow(d.Name, fmt.Sprint(d.A), fmt.Sprint(d.B), fmt.Sprintf("%+d", d.Delta))
		}
		if err := ctbl.Write(w); err != nil {
			return err
		}
	}
	if len(res.Fifos) > 0 {
		fmt.Fprintln(w, "\nFIFO occupancy deltas at the divergence instant:")
		ftbl := stats.NewTable("fifo", "len_a", "len_b", "depth")
		for _, f := range res.Fifos {
			ftbl.AddRow(f.Name, fmt.Sprint(f.LenA), fmt.Sprint(f.LenB), fmt.Sprint(f.Depth))
		}
		if err := ftbl.Write(w); err != nil {
			return err
		}
	}
	if len(res.Initiators) > 0 {
		fmt.Fprintln(w, "\nper-initiator deltas at the divergence instant:")
		itbl := stats.NewTable("initiator", "inflight_a", "inflight_b", "issued_a", "issued_b", "oldest_a_ns", "oldest_b_ns")
		for _, h := range res.Initiators {
			itbl.AddRow(h.Name,
				fmt.Sprint(h.InFlightA), fmt.Sprint(h.InFlightB),
				fmt.Sprint(h.IssuedA), fmt.Sprint(h.IssuedB),
				fmt.Sprintf("%.1f", float64(h.OldestAgeAPS)/1e3),
				fmt.Sprintf("%.1f", float64(h.OldestAgeBPS)/1e3))
		}
		if err := itbl.Write(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
