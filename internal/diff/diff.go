// Package diff is the differential-observability layer: structural
// comparison of two runs' artifacts and snapshot-driven localization of the
// first cycle where two variants diverge.
//
// The paper's core claim is that communication/memory/I/O interactions only
// become visible when two platform variants are compared under identical
// stimulus. The simulator already produces rich per-run artifacts — report
// JSON, attribution matrices, telemetry NDJSON, snapshots — and this package
// turns them into first-class comparisons:
//
//   - diff.go: structural diff of two run reports — counter, gauge
//     and histogram deltas ranked by relative magnitude, per-initiator ×
//     per-phase attribution deltas with dominant-phase flips highlighted,
//     and deadline-table regressions.
//   - stream.go: diff of two telemetry NDJSON streams aligned by sequence
//     number, emitting the first divergent snapshot's cycle and the set of
//     counters that first disagree.
//   - bisect.go: paired-run divergence bisection — checkpoint two variants
//     on a shared cycle grid via Platform.Snapshot and binary-search to the
//     exact first central-clock cycle where observable state differs, with
//     a forensics-style context block for that instant.
//
// Every document carries Schema (mpsocsim.diff/1) and renders
// deterministically: the same two inputs produce byte-identical output, so a
// diff can itself be cached, compared and asserted on in CI.
package diff

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"mpsocsim/internal/platform"
)

// Schema identifies the diff document layout. The "kind" field says which
// shape follows: "report", "telemetry" or "bisect".
const Schema = "mpsocsim.diff/1"

// Side identifies one input of a comparison.
type Side struct {
	File     string `json:"file,omitempty"`
	Platform string `json:"platform,omitempty"`
	Schema   string `json:"schema,omitempty"`
	Done     bool   `json:"done"`
}

// ScalarDelta is the change of one top-level run figure.
type ScalarDelta struct {
	Name  string  `json:"name"`
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	Delta float64 `json:"delta"`
	Rel   float64 `json:"rel"`
}

// ValueDelta is the change of one integer instrument (counter or gauge).
// Rel is delta over the larger magnitude, so it is bounded to [-2, 2]
// (beyond ±1 only when the sides have opposite signs) and stays
// JSON-encodable when one side is zero.
type ValueDelta struct {
	Name  string  `json:"name"`
	A     int64   `json:"a"`
	B     int64   `json:"b"`
	Delta int64   `json:"delta"`
	Rel   float64 `json:"rel"`
}

// HistDelta is the change of one latency distribution's summary.
type HistDelta struct {
	Name  string  `json:"name"`
	NA    int64   `json:"n_a"`
	NB    int64   `json:"n_b"`
	MeanA float64 `json:"mean_a"`
	MeanB float64 `json:"mean_b"`
	P99A  int64   `json:"p99_a"`
	P99B  int64   `json:"p99_b"`
	MaxA  int64   `json:"max_a"`
	MaxB  int64   `json:"max_b"`
	Rel   float64 `json:"rel"`
}

// DominantFlip records an initiator whose dominant latency phase changed
// between the two runs — the paper's headline "where do cycles go" signal.
type DominantFlip struct {
	Initiator string `json:"initiator"`
	A         string `json:"a"`
	B         string `json:"b"`
}

// AttrCellDelta is the change of one initiator × phase attribution cell.
type AttrCellDelta struct {
	Initiator string  `json:"initiator"`
	Phase     string  `json:"phase"`
	APS       int64   `json:"a_ps"`
	BPS       int64   `json:"b_ps"`
	DeltaPS   int64   `json:"delta_ps"`
	Rel       float64 `json:"rel"`
}

// AttrDiff is the attribution section of a report diff.
type AttrDiff struct {
	Flips []DominantFlip  `json:"dominant_phase_flips,omitempty"`
	Cells []AttrCellDelta `json:"cells,omitempty"`
}

// DeadlineDelta compares one I/O device's deadline accounting across the
// two runs. Regressed marks devices that missed more deadlines in B.
type DeadlineDelta struct {
	Device      string  `json:"device"`
	MissedA     int64   `json:"missed_a"`
	MissedB     int64   `json:"missed_b"`
	DeltaMissed int64   `json:"delta_missed"`
	MeanSvcA    float64 `json:"mean_svc_a"`
	MeanSvcB    float64 `json:"mean_svc_b"`
	P90SvcA     int64   `json:"p90_svc_a"`
	P90SvcB     int64   `json:"p90_svc_b"`
	Regressed   bool    `json:"regressed"`
}

// ReportDiff is the structural comparison of two run reports.
// Instrument deltas are ranked by relative magnitude (then absolute delta,
// then name), so the most-disturbed subsystems lead each list.
type ReportDiff struct {
	Schema          string          `json:"schema"`
	Kind            string          `json:"kind"`
	A               Side            `json:"a"`
	B               Side            `json:"b"`
	Scalars         []ScalarDelta   `json:"scalars"`
	Counters        []ValueDelta    `json:"counters,omitempty"`
	CountersOnlyInA []string        `json:"counters_only_in_a,omitempty"`
	CountersOnlyInB []string        `json:"counters_only_in_b,omitempty"`
	Gauges          []ValueDelta    `json:"gauges,omitempty"`
	Histograms      []HistDelta     `json:"histograms,omitempty"`
	Attribution     *AttrDiff       `json:"attribution,omitempty"`
	Deadlines       []DeadlineDelta `json:"deadlines,omitempty"`
}

// rel is the bounded relative change: delta over the larger magnitude, in
// [-2, 2]. Symmetric in the sense that swapping sides only flips the sign,
// and defined (as 0) when both sides are zero. Sides of opposite sign near
// the float64 limit overflow b − a to ±Inf, so only then is each side scaled
// before subtracting.
func rel(a, b float64) float64 {
	if a == b {
		return 0
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	if d := b - a; !math.IsInf(d, 0) {
		return d / m
	}
	return b/m - a/m
}

// delta is b − a, saturated at ±math.MaxFloat64 where it overflows, so a
// scalar row stays JSON-encodable.
func delta(a, b float64) float64 {
	d := b - a
	if math.IsInf(d, 0) {
		return math.Copysign(math.MaxFloat64, d)
	}
	return d
}

// rankValues orders instrument deltas most-disturbed first: |rel| desc,
// then |delta| desc, then name asc. Total order, so output is stable.
func rankValues(ds []ValueDelta) {
	sort.Slice(ds, func(i, j int) bool {
		ri, rj := math.Abs(ds[i].Rel), math.Abs(ds[j].Rel)
		if ri != rj {
			return ri > rj
		}
		di, dj := ds[i].Delta, ds[j].Delta
		if di < 0 {
			di = -di
		}
		if dj < 0 {
			dj = -dj
		}
		if di != dj {
			return di > dj
		}
		return ds[i].Name < ds[j].Name
	})
}

// ReadReportFile loads a run report JSON document from a file (see
// ReadReport).
func ReadReportFile(path string) (*platform.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// ReadReport decodes one run report JSON document, checking its schema
// family (mpsocsim.report/): a stored report/2 baseline, whose metrics
// carry timelines, reads like a report/3 one, the timelines ignored. Any
// document it accepts can be diffed against any other.
func ReadReport(r io.Reader) (*platform.Report, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var rep platform.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	if !strings.HasPrefix(rep.Schema, "mpsocsim.report/") {
		return nil, fmt.Errorf("schema %q is not a run report", rep.Schema)
	}
	return &rep, nil
}

// Reports builds the structural diff of two run reports. fileA/fileB label
// the sides in the output and may be empty for in-memory comparisons.
func Reports(a, b *platform.Report, fileA, fileB string) *ReportDiff {
	d := &ReportDiff{
		Schema: Schema,
		Kind:   "report",
		A:      Side{File: fileA, Platform: a.Spec.Platform, Schema: a.Schema, Done: a.Done},
		B:      Side{File: fileB, Platform: b.Spec.Platform, Schema: b.Schema, Done: b.Done},
	}
	d.Scalars = diffScalars(a, b)
	if a.Metrics != nil && b.Metrics != nil {
		d.Counters, d.CountersOnlyInA, d.CountersOnlyInB = diffCounters(a, b)
		d.Gauges = diffGauges(a, b)
		d.Histograms = diffHistograms(a, b)
	}
	if a.Attribution != nil && b.Attribution != nil {
		d.Attribution = diffAttribution(a, b)
	}
	if len(a.Deadlines) > 0 || len(b.Deadlines) > 0 {
		d.Deadlines = diffDeadlines(a, b)
	}
	return d
}

func diffScalars(a, b *platform.Report) []ScalarDelta {
	rows := []struct {
		name string
		a, b float64
	}{
		{"exec_ps", float64(a.ExecPS), float64(b.ExecPS)},
		{"central_cycles", float64(a.CentralCycles), float64(b.CentralCycles)},
		{"issued", float64(a.Issued), float64(b.Issued)},
		{"completed", float64(a.Completed), float64(b.Completed)},
		{"total_bytes", float64(a.TotalBytes), float64(b.TotalBytes)},
		{"throughput_mbps", a.ThroughputMBps, b.ThroughputMBps},
		{"mem_utilization", a.MemUtilization, b.MemUtilization},
	}
	out := make([]ScalarDelta, len(rows))
	for i, r := range rows {
		out[i] = ScalarDelta{Name: r.name, A: r.a, B: r.b, Delta: delta(r.a, r.b), Rel: rel(r.a, r.b)}
	}
	return out
}

func diffCounters(a, b *platform.Report) (deltas []ValueDelta, onlyA, onlyB []string) {
	bv := make(map[string]int64, len(b.Metrics.Counters))
	for _, c := range b.Metrics.Counters {
		bv[c.Name] = c.Value
	}
	seen := make(map[string]bool, len(a.Metrics.Counters))
	for _, c := range a.Metrics.Counters {
		seen[c.Name] = true
		vb, ok := bv[c.Name]
		if !ok {
			onlyA = append(onlyA, c.Name)
			continue
		}
		if vb != c.Value {
			deltas = append(deltas, ValueDelta{
				Name: c.Name, A: c.Value, B: vb,
				Delta: vb - c.Value, Rel: rel(float64(c.Value), float64(vb)),
			})
		}
	}
	for _, c := range b.Metrics.Counters {
		if !seen[c.Name] {
			onlyB = append(onlyB, c.Name)
		}
	}
	rankValues(deltas)
	return deltas, onlyA, onlyB
}

func diffGauges(a, b *platform.Report) []ValueDelta {
	bv := make(map[string]int64, len(b.Metrics.Gauges))
	for _, g := range b.Metrics.Gauges {
		bv[g.Name] = g.Value
	}
	var deltas []ValueDelta
	for _, g := range a.Metrics.Gauges {
		if vb, ok := bv[g.Name]; ok && vb != g.Value {
			deltas = append(deltas, ValueDelta{
				Name: g.Name, A: g.Value, B: vb,
				Delta: vb - g.Value, Rel: rel(float64(g.Value), float64(vb)),
			})
		}
	}
	rankValues(deltas)
	return deltas
}

func diffHistograms(a, b *platform.Report) []HistDelta {
	type hsum struct {
		n, p99, max int64
		mean        float64
	}
	bv := make(map[string]hsum, len(b.Metrics.Histograms))
	for _, h := range b.Metrics.Histograms {
		bv[h.Name] = hsum{n: h.N, p99: h.P99, max: h.Max, mean: h.Mean}
	}
	var out []HistDelta
	for _, h := range a.Metrics.Histograms {
		hb, ok := bv[h.Name]
		if !ok {
			continue
		}
		if h.N == hb.n && h.Mean == hb.mean && h.P99 == hb.p99 && h.Max == hb.max {
			continue
		}
		out = append(out, HistDelta{
			Name: h.Name, NA: h.N, NB: hb.n,
			MeanA: h.Mean, MeanB: hb.mean,
			P99A: h.P99, P99B: hb.p99,
			MaxA: h.Max, MaxB: hb.max,
			Rel: rel(h.Mean, hb.mean),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := math.Abs(out[i].Rel), math.Abs(out[j].Rel)
		if ri != rj {
			return ri > rj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func diffAttribution(a, b *platform.Report) *AttrDiff {
	d := &AttrDiff{}
	type irow struct {
		dominant string
		phases   map[string]int64
	}
	bi := make(map[string]irow, len(b.Attribution.Initiators))
	for _, is := range b.Attribution.Initiators {
		ph := make(map[string]int64, len(is.Phases))
		for _, p := range is.Phases {
			ph[p.Phase] = p.TotalPS
		}
		bi[is.Initiator] = irow{dominant: is.Dominant, phases: ph}
	}
	for _, is := range a.Attribution.Initiators {
		rb, ok := bi[is.Initiator]
		if !ok {
			continue
		}
		if is.Dominant != rb.dominant {
			d.Flips = append(d.Flips, DominantFlip{Initiator: is.Initiator, A: is.Dominant, B: rb.dominant})
		}
		for _, p := range is.Phases {
			bp, ok := rb.phases[p.Phase]
			if !ok || bp == p.TotalPS {
				continue
			}
			d.Cells = append(d.Cells, AttrCellDelta{
				Initiator: is.Initiator, Phase: p.Phase,
				APS: p.TotalPS, BPS: bp, DeltaPS: bp - p.TotalPS,
				Rel: rel(float64(p.TotalPS), float64(bp)),
			})
		}
	}
	sort.Slice(d.Cells, func(i, j int) bool {
		ri, rj := math.Abs(d.Cells[i].Rel), math.Abs(d.Cells[j].Rel)
		if ri != rj {
			return ri > rj
		}
		if d.Cells[i].Initiator != d.Cells[j].Initiator {
			return d.Cells[i].Initiator < d.Cells[j].Initiator
		}
		return d.Cells[i].Phase < d.Cells[j].Phase
	})
	return d
}

func diffDeadlines(a, b *platform.Report) []DeadlineDelta {
	type drow struct {
		missed, p90 int64
		mean        float64
	}
	bv := make(map[string]drow, len(b.Deadlines))
	for _, s := range b.Deadlines {
		bv[s.Device] = drow{missed: s.Missed, p90: s.P90SvcCycles, mean: s.MeanSvcCycles}
	}
	var out []DeadlineDelta
	for _, s := range a.Deadlines {
		sb, ok := bv[s.Device]
		if !ok {
			continue
		}
		out = append(out, DeadlineDelta{
			Device:  s.Device,
			MissedA: s.Missed, MissedB: sb.missed, DeltaMissed: sb.missed - s.Missed,
			MeanSvcA: s.MeanSvcCycles, MeanSvcB: sb.mean,
			P90SvcA: s.P90SvcCycles, P90SvcB: sb.p90,
			Regressed: sb.missed > s.Missed,
		})
	}
	return out
}

// writeJSON renders any diff document with the repo's standard two-space
// indentation. encoding/json iterates struct fields in declaration order
// and the builders above sort every slice with a total order, so output is
// byte-identical across invocations for the same inputs.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteJSON renders the diff document deterministically.
func (d *ReportDiff) WriteJSON(w io.Writer) error { return writeJSON(w, d) }
