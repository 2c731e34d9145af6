package diff

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mpsocsim/internal/platform"
	"mpsocsim/internal/telemetry"
)

// specPair builds variant A from a config text and variant B from the same
// text plus one perturbation line: a one-parameter change through the spec
// text.
func specPair(t *testing.T, base, perturb string) (platform.Spec, platform.Spec) {
	t.Helper()
	sa, err := platform.ParseSpec(strings.NewReader(base))
	if err != nil {
		t.Fatalf("parse base config: %v", err)
	}
	sb, err := platform.ParseSpec(strings.NewReader(base + perturb + "\n"))
	if err != nil {
		t.Fatalf("parse perturbed config: %v", err)
	}
	return sa, sb
}

// goldens are three reference variants, each seeded with a different
// one-parameter perturbation: +1 SDRAM CAS wait state on the two LMI
// platforms, +1 on-chip wait state on the on-chip one.
var goldens = []struct {
	name    string
	base    string
	perturb string
}{
	{
		name:    "stbus-distributed-lmi-cas",
		base:    "[platform]\nprotocol = stbus\ntopology = distributed\nmemory = lmi\nscale = 0.1\n",
		perturb: "lmi.sdram.cas = 4",
	},
	{
		name:    "axi-collapsed-lmi-cas",
		base:    "[platform]\nprotocol = axi\ntopology = collapsed\nmemory = lmi\nscale = 0.1\n",
		perturb: "lmi.sdram.cas = 4",
	},
	{
		name:    "ahb-distributed-onchip-ws",
		base:    "[platform]\nprotocol = ahb\ntopology = distributed\nmemory = onchip\nscale = 0.1\n",
		perturb: "waitstates = 2",
	},
}

const bisectBudget = int64(5_000_000_000_000)

// linearFirstDivergence is the reference oracle: advance both variants one
// central cycle at a time and report the first cycle where the observable
// state differs. Slow but unarguable.
func linearFirstDivergence(t *testing.T, sa, sb platform.Spec, limit int64) int64 {
	t.Helper()
	pa, err := platform.Build(sa)
	if err != nil {
		t.Fatalf("build A: %v", err)
	}
	pb, err := platform.Build(sb)
	if err != nil {
		t.Fatalf("build B: %v", err)
	}
	dg := newDigester(pa, pb)
	for c := int64(0); c <= limit; c++ {
		pa.RunToCycle(c, bisectBudget)
		pb.RunToCycle(c, bisectBudget)
		if !equalDigest(dg.digest(pa, 0), dg.digest(pb, 1)) {
			return c
		}
	}
	t.Fatalf("no divergence within %d cycles", limit)
	return -1
}

// TestBisectMatchesLinearScan is the seeded known-divergence property test:
// for each golden, the snapshot-grid binary search must land on exactly the
// cycle a cycle-by-cycle forward scan finds.
func TestBisectMatchesLinearScan(t *testing.T) {
	for _, g := range goldens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			sa, sb := specPair(t, g.base, g.perturb)
			res, err := Bisect(sa, sb, BisectOptions{GridEvery: 512, Workers: 2})
			if err != nil {
				t.Fatalf("Bisect: %v", err)
			}
			if res.DivergedAt <= 0 {
				t.Fatalf("perturbed variant reported no divergence: %+v", res)
			}
			want := linearFirstDivergence(t, sa, sb, res.DivergedAt+512)
			if res.DivergedAt != want {
				t.Fatalf("bisect diverged_at = %d, linear scan says %d", res.DivergedAt, want)
			}
			if res.AgreeCycle != res.DivergedAt-1 {
				t.Fatalf("agree_cycle = %d, want %d", res.AgreeCycle, res.DivergedAt-1)
			}
			if res.SpanHi-res.SpanLo != res.GridEvery {
				t.Fatalf("span [%d, %d] is not one grid interval (%d)", res.SpanLo, res.SpanHi, res.GridEvery)
			}
			if want := CeilLog2(res.SpanHi - res.SpanLo); res.Steps != want {
				t.Fatalf("bisect_steps = %d, want log2(span) = %d", res.Steps, want)
			}
			if len(res.FirstCounters) == 0 && len(res.FirstGauges) == 0 {
				t.Fatalf("divergence at %d carries no differing instruments", res.DivergedAt)
			}
			if res.ContextA == nil || res.ContextB == nil {
				t.Fatalf("missing forensics context blocks")
			}
		})
	}
}

// TestBisectAgreesWithTelemetry cross-checks the bisection cycle against
// per-cycle telemetry streams of full runs: with cadence-1 collection, the
// first record pair that disagrees must sit at exactly diverged_at.
func TestBisectAgreesWithTelemetry(t *testing.T) {
	for _, g := range goldens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			sa, sb := specPair(t, g.base, g.perturb)
			res, err := Bisect(sa, sb, BisectOptions{GridEvery: 512, Workers: 2})
			if err != nil {
				t.Fatalf("Bisect: %v", err)
			}
			div := res.DivergedAt
			if div <= 0 {
				t.Fatalf("no divergence: %+v", res)
			}
			d := Streams(
				&telemetry.Stream{Records: teleRecords(t, sa, div)},
				&telemetry.Stream{Records: teleRecords(t, sb, div)},
				"A", "B",
			)
			if d.DivergedAt == nil {
				t.Fatal("telemetry streams never diverged")
			}
			if d.DivergedAt.CycleA != div {
				t.Fatalf("telemetry diverges at cycle %d, bisect says %d", d.DivergedAt.CycleA, div)
			}
			if len(d.DivergedAt.Counters) == 0 && len(d.DivergedAt.Gauges) == 0 &&
				len(d.DivergedAt.Initiators) == 0 && len(d.DivergedAt.Fields) == 0 {
				t.Fatal("divergence record carries no deltas")
			}
		})
	}
}

// teleRecords runs spec with cadence-1 telemetry, cutting the run just past
// the divergence cycle via the simulated budget, and drains the collected
// records.
func teleRecords(t *testing.T, spec platform.Spec, div int64) []telemetry.Record {
	t.Helper()
	p, err := platform.Build(spec)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	col := p.EnableTelemetry(1, int(div)+128)
	p.Run((div + 64) * p.CentralClk.PeriodPS())
	recs, _ := col.Drain(0)
	return recs
}

// TestBisectIdenticalSpecsReportNoDivergence pins the negative path: the
// same spec against itself must walk the grid to the end of the run and
// come back with diverged_at = -1.
func TestBisectIdenticalSpecsReportNoDivergence(t *testing.T) {
	sa, err := platform.ParseSpec(strings.NewReader("[platform]\nmemory = onchip\nscale = 0.05\n"))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Bisect(sa, sa, BisectOptions{GridEvery: 1024, Workers: 2})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if res.DivergedAt != -1 {
		t.Fatalf("identical specs diverged at %d", res.DivergedAt)
	}
	if res.GridPoints == 0 {
		t.Fatalf("grid walk never advanced")
	}
}

// TestBisectContextsMatchFreshRuns holds the bisect contexts to the §19
// contract on the diff-smoke pair (an on-chip platform against the same one
// with two memory wait states): each context, rendered on a platform
// restored from the search's grid, must equal the stall report of its spec
// built fresh and run straight to the divergence cycle.
func TestBisectContextsMatchFreshRuns(t *testing.T) {
	sa, sb := specPair(t, "[platform]\nmemory = onchip\nscale = 0.1\n", "waitstates = 2")
	res, err := Bisect(sa, sb, BisectOptions{GridEvery: 512, Workers: 2})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if res.DivergedAt <= 0 {
		t.Fatalf("the pair reported no divergence: %+v", res)
	}
	for _, side := range []struct {
		name string
		spec platform.Spec
		got  *telemetry.StallReport
	}{{"A", sa, res.ContextA}, {"B", sb, res.ContextB}} {
		p, err := platform.Build(side.spec)
		if err != nil {
			t.Fatalf("build %s: %v", side.name, err)
		}
		p.RunToCycle(res.DivergedAt, bisectBudget)
		want := p.StallReport(side.got.Reason, 10)
		if !reflect.DeepEqual(side.got, want) {
			var g, w bytes.Buffer
			side.got.Write(&g)
			want.Write(&w)
			t.Errorf("context %s differs from a fresh run to cycle %d.\ncontext:\n%s\nfresh:\n%s", side.name, res.DivergedAt, g.String(), w.String())
		}
	}
}

// TestBisectResultJSONDeterministic renders the same result twice and
// re-runs the whole search for a third copy: all three documents must be
// byte-identical.
func TestBisectResultJSONDeterministic(t *testing.T) {
	g := goldens[0]
	sa, sb := specPair(t, g.base, g.perturb)
	res1, err := Bisect(sa, sb, BisectOptions{GridEvery: 512, Workers: 2})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	res2, err := Bisect(sa, sb, BisectOptions{GridEvery: 512, Workers: 2})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	var b1, b2, b3 bytes.Buffer
	if err := res1.WriteJSON(&b1); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := res1.WriteJSON(&b2); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := res2.WriteJSON(&b3); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("same result rendered differently")
	}
	if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Fatalf("re-running the search changed the document")
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int64]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 512: 9, 513: 10, 2048: 11}
	for n, want := range cases {
		if got := CeilLog2(n); got != want {
			t.Fatalf("CeilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}
