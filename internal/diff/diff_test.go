package diff

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mpsocsim/internal/metrics"
	"mpsocsim/internal/platform"
	"mpsocsim/internal/telemetry"
)

func runReport(t *testing.T, text string, attr bool) *platform.Report {
	t.Helper()
	spec, err := platform.ParseSpec(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := platform.Build(spec)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if attr {
		p.EnableAttribution(0)
	}
	r := p.Run(5_000_000_000_000)
	rep := r.Report()
	return &rep
}

func TestReportDiffRanksAndFlags(t *testing.T) {
	a := runReport(t, "[platform]\nprotocol = stbus\ntopology = distributed\nmemory = lmi\nscale = 0.1\nio = true\n", true)
	b := runReport(t, "[platform]\nprotocol = ahb\ntopology = distributed\nmemory = lmi\nscale = 0.1\nio = true\n", true)
	d := Reports(a, b, "a.json", "b.json")

	if d.Schema != Schema || d.Kind != "report" {
		t.Fatalf("schema/kind = %q/%q", d.Schema, d.Kind)
	}
	if len(d.Scalars) != 7 {
		t.Fatalf("got %d scalar rows, want 7", len(d.Scalars))
	}
	if len(d.Counters) == 0 {
		t.Fatalf("cross-fabric runs produced no counter deltas")
	}
	for i := 1; i < len(d.Counters); i++ {
		ri, rj := d.Counters[i-1].Rel, d.Counters[i].Rel
		if abs(ri) < abs(rj) {
			t.Fatalf("counter deltas not ranked: %v before %v", d.Counters[i-1], d.Counters[i])
		}
	}
	// STBus and AHB register fabric-specific instruments, so both
	// only-in lists must be populated.
	if len(d.CountersOnlyInA) == 0 || len(d.CountersOnlyInB) == 0 {
		t.Fatalf("cross-fabric only-in lists empty: %v / %v", d.CountersOnlyInA, d.CountersOnlyInB)
	}
	if d.Attribution == nil || len(d.Attribution.Cells) == 0 {
		t.Fatalf("attribution section missing or empty")
	}
	if len(d.Deadlines) == 0 {
		t.Fatalf("io runs produced no deadline comparison")
	}
	for _, row := range d.Deadlines {
		if row.Regressed != (row.MissedB > row.MissedA) {
			t.Fatalf("regression flag inconsistent: %+v", row)
		}
	}
}

func TestReportDiffIdenticalRunsQuiet(t *testing.T) {
	a := runReport(t, "[platform]\nmemory = onchip\nscale = 0.1\n", false)
	b := runReport(t, "[platform]\nmemory = onchip\nscale = 0.1\n", false)
	d := Reports(a, b, "", "")
	if len(d.Counters) != 0 || len(d.Gauges) != 0 || len(d.Histograms) != 0 {
		t.Fatalf("identical runs produced deltas: %d counters, %d gauges, %d histograms",
			len(d.Counters), len(d.Gauges), len(d.Histograms))
	}
	for _, s := range d.Scalars {
		if s.Delta != 0 {
			t.Fatalf("identical runs moved scalar %s by %v", s.Name, s.Delta)
		}
	}
}

func TestReportDiffJSONDeterministic(t *testing.T) {
	a := runReport(t, "[platform]\nprotocol = stbus\nmemory = lmi\nscale = 0.1\n", false)
	b := runReport(t, "[platform]\nprotocol = axi\nmemory = lmi\nscale = 0.1\n", false)
	var b1, b2 bytes.Buffer
	if err := Reports(a, b, "x", "y").WriteJSON(&b1); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := Reports(a, b, "x", "y").WriteJSON(&b2); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("diff output not byte-identical across invocations")
	}
	var doc map[string]any
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("diff output not valid JSON: %v", err)
	}
	if doc["schema"] != Schema {
		t.Fatalf("schema = %v", doc["schema"])
	}
}

// TestReportDiffOppositeExtremes diffs two copies of one report whose first
// histogram mean and throughput sit at opposite ends of the float64 range:
// b − a overflows, yet the relative changes must come out −2, the scalar
// delta saturate, and the document render.
func TestReportDiffOppositeExtremes(t *testing.T) {
	raw, err := json.Marshal(runReport(t, "[platform]\nscale = 0.05\n", false))
	if err != nil {
		t.Fatal(err)
	}
	var sides [2]*platform.Report
	for i, v := range []float64{1e308, -1e308} {
		if sides[i], err = ReadReport(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
		if len(sides[i].Metrics.Histograms) == 0 {
			t.Fatal("report has no histograms")
		}
		sides[i].Metrics.Histograms[0].Mean = v
		sides[i].ThroughputMBps = v
	}
	d := Reports(sides[0], sides[1], "a.json", "b.json")
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if len(d.Histograms) != 1 || d.Histograms[0].Rel != -2 {
		t.Fatalf("histogram rows = %+v, want one with rel -2", d.Histograms)
	}
	for _, s := range d.Scalars {
		if s.Name == "throughput_mbps" && (s.Rel != -2 || s.Delta != -math.MaxFloat64) {
			t.Fatalf("throughput row = %+v, want rel -2 and delta -MaxFloat64", s)
		}
	}
}

func TestStreamDiffFindsFirstDivergentRecord(t *testing.T) {
	rec := func(seq, cycle, grants int64) telemetry.Record {
		return telemetry.Record{
			Schema: telemetry.Schema, Seq: seq, Cycle: cycle, TimePS: cycle * 4000,
			Issued: 2 * seq, Completed: seq,
			Counters: []metrics.CounterValue{{Name: "fab.grants", Value: grants}},
		}
	}
	a := &telemetry.Stream{Records: []telemetry.Record{rec(0, 100, 5), rec(1, 200, 9), rec(2, 300, 14)}}
	b := &telemetry.Stream{Records: []telemetry.Record{rec(0, 100, 5), rec(1, 200, 9), rec(2, 300, 17)}}
	d := Streams(a, b, "a.ndjson", "b.ndjson")
	if d.DivergedAt == nil {
		t.Fatalf("divergent streams reported identical")
	}
	if d.DivergedAt.Seq != 2 || d.DivergedAt.CycleA != 300 {
		t.Fatalf("diverged at seq %d cycle %d, want seq 2 cycle 300", d.DivergedAt.Seq, d.DivergedAt.CycleA)
	}
	if d.Compared != 2 {
		t.Fatalf("compared %d pairs before divergence, want 2", d.Compared)
	}
	if len(d.DivergedAt.Counters) != 1 || d.DivergedAt.Counters[0].Name != "fab.grants" {
		t.Fatalf("first disagreeing counters = %+v", d.DivergedAt.Counters)
	}

	// Identical prefixes with a sequence gap (ring drop) still align.
	c := &telemetry.Stream{Records: []telemetry.Record{rec(0, 100, 5), rec(2, 300, 14)}}
	if d := Streams(a, c, "", ""); d.DivergedAt != nil || d.Compared != 2 {
		t.Fatalf("seq-gap alignment failed: %+v", d)
	}
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// TestReportDiffReadsStoredReport2 diffs a stored report/2 baseline against
// a fresh report of the same spec. The baseline is the first document of
// the checked-in FuzzReports seed seed_same, a scale-0.05 reference run
// whose metrics still carry the timelines that report/3 removed: the reader
// must accept it, ignore the timelines, and diff every counter it stores
// against the fresh run's, by name, ranked. The model has not moved this
// run since the seed was written, so today the diff finds no delta; a model
// change that does move it must still rank what it finds.
func TestReportDiffReadsStoredReport2(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReports", "seed_same"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(body), "\n")
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("seed_same does not hold a []byte corpus value on its second line")
	}
	doc, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc, `"timelines"`) {
		t.Fatal("the stored baseline has no timelines section")
	}
	base, err := ReadReport(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("stored report/2 baseline does not read: %v", err)
	}
	if base.Schema != "mpsocsim.report/2" {
		t.Fatalf("baseline schema = %q, want mpsocsim.report/2", base.Schema)
	}
	fresh := runReport(t, "[platform]\nscale = 0.05\n", false)
	if fresh.Schema != platform.ReportSchema || base.Spec.Platform != fresh.Spec.Platform {
		t.Fatalf("fresh run is %s of %s, want %s of %s", fresh.Schema, fresh.Spec.Platform, platform.ReportSchema, base.Spec.Platform)
	}
	if base.Metrics == nil || len(base.Metrics.Counters) != len(fresh.Metrics.Counters) {
		t.Fatalf("baseline reads %v counters, the fresh run has %d", base.Metrics, len(fresh.Metrics.Counters))
	}
	d := Reports(base, fresh, "seed_same", "")
	if len(d.CountersOnlyInA) != 0 || len(d.CountersOnlyInB) != 0 {
		t.Fatalf("counters unmatched by name: only in the baseline %v, only in the fresh run %v", d.CountersOnlyInA, d.CountersOnlyInB)
	}
	for i := 1; i < len(d.Counters); i++ {
		if abs(d.Counters[i-1].Rel) < abs(d.Counters[i].Rel) {
			t.Fatalf("counter deltas not ranked: %v before %v", d.Counters[i-1], d.Counters[i])
		}
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}
