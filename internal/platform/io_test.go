package platform

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	mpio "mpsocsim/internal/io"
)

// TestIOAllFabricsDrainAndConserve runs the I/O-enabled platform across every
// protocol × topology combination: the run must drain, conserve transactions,
// and produce consistent deadline accounting for both IRQ agents.
func TestIOAllFabricsDrainAndConserve(t *testing.T) {
	for _, proto := range []Protocol{STBus, AHB, AXI} {
		for _, topo := range []Topology{Distributed, Collapsed} {
			s := quickIO(proto, topo, LMIDDR)
			t.Run(s.Name(), func(t *testing.T) {
				r := runCycles(t, s)
				if len(r.Deadlines) != 2 {
					t.Fatalf("deadline rows = %d, want 2", len(r.Deadlines))
				}
				for _, ds := range r.Deadlines {
					if ds.Raised != ds.Serviced {
						t.Errorf("%s: raised=%d but serviced=%d after drain", ds.Device, ds.Raised, ds.Serviced)
					}
					if ds.Met+ds.Missed != ds.Serviced {
						t.Errorf("%s: met(%d)+missed(%d) != serviced(%d)", ds.Device, ds.Met, ds.Missed, ds.Serviced)
					}
					if ds.Serviced > 0 && ds.MaxSvcCycles < ds.P50SvcCycles {
						t.Errorf("%s: max service %d < p50 %d", ds.Device, ds.MaxSvcCycles, ds.P50SvcCycles)
					}
				}
				for _, name := range []string{"iodma0", "irq0", "irq1", "halloc"} {
					if _, ok := r.IPs[name]; !ok {
						t.Errorf("result has no IP stats for %q", name)
					}
				}
			})
		}
	}
}

// TestIODisableKnobs pins the negative-value semantics of the IOSpec knobs:
// each initiator family can be switched off independently (the `experiments
// io` scenario uses DMADescriptors < 0 as its storm-off control).
func TestIODisableKnobs(t *testing.T) {
	base := quickIO(STBus, Distributed, LMIDDR)

	t.Run("no-dma", func(t *testing.T) {
		s := base
		s.IO.DMADescriptors = -1
		r := runCycles(t, s)
		if _, ok := r.IPs["iodma0"]; ok {
			t.Error("DMADescriptors<0 still built the DMA engine")
		}
		if len(r.Deadlines) != 2 {
			t.Errorf("deadline rows = %d, want 2", len(r.Deadlines))
		}
	})
	t.Run("no-irq", func(t *testing.T) {
		s := base
		s.IO.IRQAgents = -1
		r := runCycles(t, s)
		if _, ok := r.IPs["irq0"]; ok {
			t.Error("IRQAgents<0 still built device agents")
		}
		if len(r.Deadlines) != 0 {
			t.Errorf("deadline rows = %d, want 0 without IRQ agents", len(r.Deadlines))
		}
	})
	t.Run("no-alloc", func(t *testing.T) {
		s := base
		s.IO.AllocOps = -1
		r := runCycles(t, s)
		if _, ok := r.IPs["halloc"]; ok {
			t.Error("AllocOps<0 still built the heap allocator")
		}
	})
}

// TestIOCheckpointMidDescriptorChain checkpoints the I/O platform at an
// instant where the DMA engine is provably mid-chain (some descriptors
// fetched, not done), restores, and requires the resumed run to finish
// bit-identical to the uninterrupted one — the in-flight descriptor state,
// the pending IRQ ring and the allocator's live-block table all survive the
// round trip.
func TestIOCheckpointMidDescriptorChain(t *testing.T) {
	spec := quickIO(STBus, Distributed, LMIDDR)

	findDMA := func(p *Platform) *mpio.Engine {
		t.Helper()
		for _, g := range p.gens {
			if en, ok := g.(*mpio.Engine); ok {
				return en
			}
		}
		t.Fatal("no DMA engine in the built platform")
		return nil
	}

	ref := MustBuild(spec)
	refRes := ref.Run(5e12)
	if !refRes.Done {
		t.Fatal("reference run did not drain")
	}

	p := MustBuild(spec)
	en := findDMA(p)
	var buf bytes.Buffer
	checkpointed := false
	for c := int64(500); c <= 20000; c += 250 {
		if !p.RunToCycle(c, 5e12) {
			break
		}
		if en.DescriptorsFetched() > 0 && !en.Done() {
			if err := p.Snapshot(&buf); err != nil {
				t.Fatalf("Snapshot at cycle %d: %v", c, err)
			}
			checkpointed = true
			break
		}
	}
	if !checkpointed {
		t.Fatal("never observed the DMA engine mid-chain — retune the probe window")
	}

	rp, err := Restore(spec, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	ren := findDMA(rp)
	if ren.DescriptorsFetched() != en.DescriptorsFetched() || ren.Bytes() != en.Bytes() {
		t.Fatalf("restored chain state differs: fetched %d/%d, moved %d/%d",
			ren.DescriptorsFetched(), en.DescriptorsFetched(), ren.Bytes(), en.Bytes())
	}
	res := rp.Run(5e12)
	if !res.Done {
		t.Fatal("restored run did not drain")
	}
	res.ResumedFromCycle = 0
	if !reflect.DeepEqual(res, refRes) {
		t.Fatalf("restored Result differs from uninterrupted (cycles %d vs %d, issued %d vs %d)",
			res.CentralCycles, refRes.CentralCycles, res.Issued, refRes.Issued)
	}
}

// TestIOReportSections pins the additive report surface: the "deadlines"
// section, the spec's io_* fields, and the I/O metrics families.
func TestIOReportSections(t *testing.T) {
	r := runCycles(t, quickIO(STBus, Distributed, LMIDDR))
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	dl, ok := doc["deadlines"].([]any)
	if !ok || len(dl) != 2 {
		t.Fatalf("deadlines section = %v, want 2 rows", doc["deadlines"])
	}
	row := dl[0].(map[string]any)
	for _, key := range []string{"device", "deadline_cycles", "raised", "serviced", "met", "missed"} {
		if _, ok := row[key]; !ok {
			t.Errorf("deadline row missing key %q", key)
		}
	}
	spec := doc["spec"].(map[string]any)
	for _, key := range []string{"io", "io_dma_descriptors", "io_irq_agents", "io_irq_deadline_cycles", "io_alloc_ops"} {
		if _, ok := spec[key]; !ok {
			t.Errorf("spec missing key %q", key)
		}
	}
	counters := doc["metrics"].(map[string]any)["counters"].([]any)
	names := map[string]bool{}
	for _, c := range counters {
		names[c.(map[string]any)["name"].(string)] = true
	}
	for _, want := range []string{
		"io.dma.iodma0.descriptors_fetched", "io.dma.iodma0.bytes_moved",
		"io.irq.irq0.events_raised", "io.irq.irq1.deadline_misses",
		"io.halloc.halloc.mallocs", "ip.iodma0.issued", "ip.irq0.issued", "ip.halloc.issued",
	} {
		if !names[want] {
			t.Errorf("report missing counter %q", want)
		}
	}

	var sum bytes.Buffer
	if err := r.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(sum.Bytes(), []byte("mean_svc")) {
		t.Error("text summary has no deadline table")
	}
}
