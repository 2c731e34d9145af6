package platform

import (
	"bytes"
	"encoding/json"
	"testing"
)

// reportSpec is a small LMI platform that drains quickly but exercises every
// report section: bridges, LMI stats, DSP, and the metrics snapshot.
func reportSpec() Spec {
	s := DefaultSpec()
	s.WorkloadScale = 0.05
	return s
}

// TestReportSchema pins the JSON run report's golden schema: the version
// string and the top-level keys consumers key on. Removing or renaming any
// of these requires bumping ReportSchema.
func TestReportSchema(t *testing.T) {
	p := MustBuild(reportSpec())
	p.EnableTimelines(64, 0)
	r := p.Run(200e9)
	if !r.Done {
		t.Fatal("report run did not drain")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if got := doc["schema"]; got != ReportSchema {
		t.Fatalf("schema = %v, want %q", got, ReportSchema)
	}
	for _, key := range []string{
		"spec", "done", "exec_ps", "central_cycles", "issued", "completed",
		"total_bytes", "throughput_mbps", "mem_utilization", "ips", "metrics",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("report missing top-level key %q", key)
		}
	}
	spec := doc["spec"].(map[string]any)
	for _, key := range []string{"platform", "protocol", "topology", "memory", "seed"} {
		if _, ok := spec[key]; !ok {
			t.Errorf("spec missing key %q", key)
		}
	}
	m := doc["metrics"].(map[string]any)
	for _, key := range []string{"counters", "gauges", "histograms", "timelines"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics snapshot missing key %q", key)
		}
	}
	// Spot-check that each instrumented subsystem family is present.
	counters := m["counters"].([]any)
	names := map[string]bool{}
	for _, c := range counters {
		names[c.(map[string]any)["name"].(string)] = true
	}
	for _, want := range []string{
		"stbus.n8.grants", "stbus.n8.grant_stall_cycles",
		"bridge.n5_dma_br.accepted", "lmi.lmi.fifo_full_cycles",
		"lmi.lmi.sdram_row_hits", "dsp.st220.dcache_misses",
		"ip.decrypt.issued",
	} {
		if !names[want] {
			t.Errorf("report missing counter %q", want)
		}
	}
}

// TestReportDeterministic proves two identical runs render byte-identical
// reports: instrument enumeration is registration-ordered and map keys
// serialize sorted.
func TestReportDeterministic(t *testing.T) {
	render := func() []byte {
		p := MustBuild(reportSpec())
		p.EnableTimelines(64, 0)
		r := p.Run(200e9)
		if !r.Done {
			t.Fatal("run did not drain")
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different reports")
	}
}
