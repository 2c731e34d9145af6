package platform

import (
	"testing"
)

// Differential testing across fabrics: the same seeded workload pushed
// through the STBus Type 3, AXI and AHB single-layer benches must agree on
// every protocol-invariant property. The golden tests pin each fabric
// against its own history; this test pins the fabrics against each other,
// catching cross-fabric drift (a generator consuming RNG draws differently
// on one bus, a fabric dropping or duplicating responses) that per-fabric
// goldens cannot see.

// diffRun is the protocol-invariant summary of one single-layer run.
type diffRun struct {
	cycles    int64
	issued    int64
	completed int64
	// per-initiator workload totals, index-aligned across fabrics
	reads  []int64
	writes []int64
	bytes  []int64
	// memory-side transaction count, summed over targets
	memOps int64
}

// diffSpec is the many-to-many load (gap 0: every initiator pushes hard)
// with 30% writes, to exercise the write path too.
func diffSpec(proto Protocol) Spec {
	spec := SingleLayerBench(proto, 6, 150, 0, 7)
	for i := range spec.Workload {
		spec.Workload[i].Agents[0].Phases[0].ReadFrac = 0.7
	}
	return spec
}

func runDiff(t *testing.T, proto Protocol) diffRun {
	t.Helper()
	p, err := Build(diffSpec(proto))
	if err != nil {
		t.Fatalf("%s: %v", proto, err)
	}
	r := p.Run(5e12)
	if !r.Done {
		t.Fatalf("%s: run did not drain", proto)
	}
	out := diffRun{cycles: r.CentralCycles, issued: r.Issued, completed: r.Completed}
	for _, g := range p.Initiators() {
		for _, a := range g.Stats() {
			out.reads = append(out.reads, a.Reads)
			out.writes = append(out.writes, a.Writes)
			out.bytes = append(out.bytes, a.Bytes)
		}
	}
	for _, m := range p.OnChipMemories() {
		ms := m.Stats()
		out.memOps += ms.Reads + ms.Writes
	}
	return out
}

func TestDifferentialAcrossFabrics(t *testing.T) {
	runs := map[Protocol]diffRun{}
	for _, proto := range []Protocol{STBus, AXI, AHB} {
		runs[proto] = runDiff(t, proto)
	}
	ref := runs[STBus]

	// Invariant 1: conservation — every request gets exactly one
	// response, on every fabric, and the memories saw every transaction.
	wantIssued := int64(6 * 150)
	for proto, r := range runs {
		if r.issued != wantIssued {
			t.Errorf("%s: issued %d, want %d", proto, r.issued, wantIssued)
		}
		if r.completed != r.issued {
			t.Errorf("%s: response count %d != request count %d", proto, r.completed, r.issued)
		}
		if r.memOps != r.issued {
			t.Errorf("%s: memories served %d ops for %d requests", proto, r.memOps, r.issued)
		}
	}

	// Invariant 2: the workload is fabric-independent — identical
	// per-initiator read/write/byte totals on every fabric (each
	// initiator owns one agent, so its RNG draw sequence cannot depend
	// on bus timing).
	for _, proto := range []Protocol{AXI, AHB} {
		r := runs[proto]
		if len(r.reads) != len(ref.reads) {
			t.Fatalf("%s: %d agents vs %d on STBus", proto, len(r.reads), len(ref.reads))
		}
		for i := range ref.reads {
			if r.reads[i] != ref.reads[i] || r.writes[i] != ref.writes[i] || r.bytes[i] != ref.bytes[i] {
				t.Errorf("%s: initiator %d moved r=%d w=%d bytes=%d, STBus moved r=%d w=%d bytes=%d",
					proto, i, r.reads[i], r.writes[i], r.bytes[i],
					ref.reads[i], ref.writes[i], ref.bytes[i])
			}
		}
	}

	// Invariant 3: relative performance — under many-to-many load the
	// non-split AHB bus serializes what STBus and AXI overlap (paper
	// §4.1.1), so it can never win.
	if runs[AHB].cycles < runs[STBus].cycles {
		t.Errorf("AHB (%d cycles) beat STBus (%d) under many-to-many load", runs[AHB].cycles, runs[STBus].cycles)
	}
	if runs[AHB].cycles < runs[AXI].cycles {
		t.Errorf("AHB (%d cycles) beat AXI (%d) under many-to-many load", runs[AHB].cycles, runs[AXI].cycles)
	}
}
