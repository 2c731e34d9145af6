package platform

import (
	"bytes"
	"encoding/json"
	"reflect"
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
	for _, key := range []string{"counters", "gauges", "histograms"} {
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

// TestReportSpecNamesEveryKey walks the key table: every row, set to a value
// other than the base spec's, must change the report's spec object, so two
// runs that differ in one knob of the text form never carry the same
// description. The base attaches the I/O subsystem and the LMI memory, so
// every io.* and lmi.* row shapes the run.
func TestReportSpecNamesEveryKey(t *testing.T) {
	values := map[string]string{
		"protocol": "axi", "topology": "collapsed", "memory": "onchip",
		"waitstates": "4", "lmi.sdram.cas": "5", "stbustype": "2",
		"scale": "0.5", "seed": "7", "twophase": "true", "splitlmi": "true",
		"dsp": "false", "messaging": "false", "io": "false",
		"io.dma.descriptors": "-1", "io.dma.burst": "8", "io.irq.agents": "3",
		"io.irq.period": "300", "io.irq.deadline": "128", "io.irq.events": "12",
		"io.alloc.ops": "-1",
	}
	base := DefaultSpec()
	base.IO.Enable = true
	base.Memory = LMIDDR
	want := Result{Spec: base}.Report().Spec
	for _, k := range Keys() {
		val, ok := values[k.Name]
		if !ok {
			t.Errorf("key %s has no test value", k.Name)
			continue
		}
		spec := base
		if err := SetKey(&spec, k.Name, val); err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(spec, base) {
			t.Fatalf("%s = %s leaves the base spec unchanged", k.Name, val)
		}
		if got := (Result{Spec: spec}).Report().Spec; reflect.DeepEqual(got, want) {
			t.Errorf("%s = %s leaves the report's spec object unchanged", k.Name, val)
		}
	}
}
