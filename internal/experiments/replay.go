package experiments

import (
	"fmt"
	"io"

	"mpsocsim/internal/platform"
	"mpsocsim/internal/runner"
	"mpsocsim/internal/stats"
	"mpsocsim/internal/tracecap"
)

// ReplayVariant is one fabric measured under the captured stimulus.
type ReplayVariant struct {
	Name   string
	Cycles int64
	// Normalized is Cycles relative to the capturing run.
	Normalized float64
	// MeanLat maps initiator name to the mean end-to-end latency the
	// replayed transactions saw on this fabric.
	MeanLat map[string]float64
	P90Lat  map[string]int64
}

// ReplayResult is the cross-fabric replay comparison: one capture baseline
// and its replays.
type ReplayResult struct {
	// BaseCycles is the capturing STBus run's cycle count; BaseEvents the
	// captured transaction count.
	BaseCycles int64
	BaseEvents int64
	// Initiators lists the captured initiator names in platform order.
	Initiators []string
	// BaseMean/BaseP90 are the per-initiator latency baselines recorded
	// in the trace itself.
	BaseMean map[string]float64
	BaseP90  map[string]int64
	Variants []ReplayVariant
}

// CrossFabricReplay captures the reference STBus platform's stimulus once,
// then replays it bit-identically (timed mode) against the same platform and
// the AHB and AXI variants — the paper's cross-fabric comparison under truly
// identical traffic rather than statistically regenerated traffic. The STBus
// replay doubles as a self-check: it must reproduce the capturing run's
// cycle count exactly.
func CrossFabricReplay(o Options) (ReplayResult, error) {
	o.normalize()
	base := baseSpec(o)

	// Capture run: one serial run with probes attached; the replays fan
	// out afterwards (they all consume the same trace).
	p, err := platform.Build(base)
	if err != nil {
		return ReplayResult{}, err
	}
	capture := tracecap.NewCapture(base.Name(), 0)
	p.AttachCapture(capture)
	r := p.Run(Budget)
	if !r.Done {
		return ReplayResult{}, fmt.Errorf("capture run on %s did not drain within budget", base.Name())
	}
	tr := capture.Trace()

	out := ReplayResult{
		BaseCycles: r.CentralCycles,
		BaseEvents: tr.Events(),
		BaseMean:   map[string]float64{},
		BaseP90:    map[string]int64{},
	}
	for _, s := range tr.Streams {
		out.Initiators = append(out.Initiators, s.Name)
		h := s.LatencyHistogram()
		out.BaseMean[s.Name] = h.Mean()
		out.BaseP90[s.Name] = h.Quantile(0.9)
	}

	variants := []struct {
		name  string
		proto platform.Protocol
	}{
		{"replay STBus (control)", platform.STBus},
		{"replay AHB", platform.AHB},
		{"replay AXI", platform.AXI},
	}
	var jobs []runner.Job[platform.Result]
	for _, v := range variants {
		s := base
		s.Protocol = v.proto
		s.Replay = tr
		jobs = append(jobs, platformJob(v.name, s, o))
	}
	results, err := runner.Values(runner.Map(jobs, o.pool("replay")))
	if err != nil {
		return ReplayResult{}, err
	}
	for i, v := range variants {
		rv := ReplayVariant{
			Name:       v.name,
			Cycles:     results[i].CentralCycles,
			Normalized: float64(results[i].CentralCycles) / float64(out.BaseCycles),
			MeanLat:    map[string]float64{},
			P90Lat:     map[string]int64{},
		}
		for name, agents := range results[i].IPs {
			for _, a := range agents {
				rv.MeanLat[name] = a.MeanLatency
				rv.P90Lat[name] = a.P90Latency
			}
		}
		out.Variants = append(out.Variants, rv)
	}
	return out, nil
}

// Write renders the comparison: the per-variant cycle counts and the
// per-initiator latency deltas under identical stimulus.
func (r ReplayResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "== Cross-fabric replay — recorded STBus stimulus on every fabric ==")
	fmt.Fprintf(w, "Captured %d transactions from the reference STBus platform (%d central\n", r.BaseEvents, r.BaseCycles)
	fmt.Fprintln(w, "cycles), then re-drove them in timed mode. The STBus replay is the control:")
	fmt.Fprintln(w, "normalized 1.000 proves the replay loop reproduces the capture exactly; the")
	fmt.Fprintln(w, "AHB/AXI columns show what the same transactions cost on the other fabrics.")
	fmt.Fprintln(w)
	ctbl := stats.NewTable("variant", "cycles", "normalized")
	for _, v := range r.Variants {
		ctbl.AddRow(v.Name, fmt.Sprint(v.Cycles), fmt.Sprintf("%.3f", v.Normalized))
	}
	if err := ctbl.Write(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	tbl := stats.NewTable("initiator", "base_mean", "base_p90", "stbus_mean", "ahb_mean", "axi_mean", "ahb_delta", "axi_delta")
	for _, name := range r.Initiators {
		base := r.BaseMean[name]
		delta := func(v float64) string {
			if base == 0 {
				return "-"
			}
			return fmt.Sprintf("%+.1f%%", 100*(v-base)/base)
		}
		tbl.AddRow(name,
			fmt.Sprintf("%.1f", base),
			fmt.Sprint(r.BaseP90[name]),
			fmt.Sprintf("%.1f", r.Variants[0].MeanLat[name]),
			fmt.Sprintf("%.1f", r.Variants[1].MeanLat[name]),
			fmt.Sprintf("%.1f", r.Variants[2].MeanLat[name]),
			delta(r.Variants[1].MeanLat[name]),
			delta(r.Variants[2].MeanLat[name]))
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}
