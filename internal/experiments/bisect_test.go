package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestBisectLocalizesStormDivergence(t *testing.T) {
	r, err := Bisect(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Deadlines) == 0 {
		t.Fatal("no deadline rows")
	}
	res := r.Result
	if res == nil || res.DivergedAt <= 0 {
		t.Fatalf("divergence not localized: %+v", res)
	}
	if res.AgreeCycle != res.DivergedAt-1 {
		t.Fatalf("agree_cycle = %d, diverged_at = %d", res.AgreeCycle, res.DivergedAt)
	}
	if res.SharedCounters == 0 || res.SharedGauges == 0 {
		t.Fatalf("cross-fabric comparison found no shared instruments")
	}
	if len(res.FirstCounters) == 0 && len(res.FirstGauges) == 0 {
		t.Fatalf("no diverging instruments at cycle %d", res.DivergedAt)
	}

	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Divergence bisection", "miss_a", "miss_b", "first divergent central-clock cycle"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q", want)
		}
	}
}

// TestBisectDeterministicAcrossRuns pins the acceptance criterion: the
// experiment's rendered output — deadline tables from the full runs AND the
// localized divergence cycle — must be byte-identical across repeated
// regenerations.
func TestBisectDeterministicAcrossRuns(t *testing.T) {
	render := func() []byte {
		r, err := Bisect(small)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("two regenerations differ")
	}
}
