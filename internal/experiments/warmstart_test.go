package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// warmOpts is a small but non-trivial configuration: big enough that every
// fig5 run crosses the warm-up prefix, small enough to regenerate the figure
// three times in a test.
func warmOpts(t *testing.T, prefix int64) Options {
	t.Helper()
	cache, err := NewSnapCache(t.TempDir(), prefix)
	if err != nil {
		t.Fatal(err)
	}
	return Options{Scale: 0.2, Seed: 1, Workers: 2, Cache: cache}
}

func renderFig5(t *testing.T, o Options) string { return renderSeries(t, Fig5, o) }

func renderSeries(t *testing.T, fig func(Options) (Series, error), o Options) string {
	t.Helper()
	r, err := fig(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestWarmStartFig5ByteIdentical pins the warm-start contract end to end,
// on the fig5 platforms and on the §4.1.2 single-layer benches: each table
// regenerated cold (priming the cache), warm (restoring it) and with no
// cache at all must be byte-identical, and the hit/miss counters must show
// the cache actually carried every warm run. The 2000-cycle prefix lies
// inside every run of both tables.
func TestWarmStartFig5ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates fig5 and sec412 three times each")
	}
	for _, c := range []struct {
		name string
		fig  func(Options) (Series, error)
		runs int64
	}{
		{"fig5", Fig5, 5},
		{"sec412", Sec412, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := warmOpts(t, 2000)
			plain := renderSeries(t, c.fig, Options{Scale: o.Scale, Seed: o.Seed, Workers: o.Workers})
			cold := renderSeries(t, c.fig, o)
			if h, m := o.Cache.Hits(), o.Cache.Misses(); h != 0 || m != c.runs {
				t.Fatalf("cold pass: hits=%d misses=%d, want 0/%d", h, m, c.runs)
			}
			warm := renderSeries(t, c.fig, o)
			if h, m := o.Cache.Hits(), o.Cache.Misses(); h != c.runs || m != c.runs {
				t.Fatalf("after warm pass: hits=%d misses=%d, want %d/%d", h, m, c.runs, c.runs)
			}
			if cold != plain {
				t.Errorf("cold cached output differs from uncached output:\n--- uncached ---\n%s\n--- cold ---\n%s", plain, cold)
			}
			if warm != cold {
				t.Errorf("warm output differs from cold output:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
			}
		})
	}
}

// TestWarmStartCorruptEntryFallsBack pins the resilience path: a truncated
// or garbage cache entry is dropped and the run completes cold, re-priming
// the entry.
func TestWarmStartCorruptEntryFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("full-platform runs")
	}
	o := warmOpts(t, 2000)
	cold := renderFig5(t, o)
	ents, err := os.ReadDir(o.Cache.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 5 {
		t.Fatalf("cache holds %d entries, want 5", len(ents))
	}
	for _, ent := range ents {
		if err := os.WriteFile(filepath.Join(o.Cache.dir, ent.Name()), []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	warm := renderFig5(t, o)
	if h, m := o.Cache.Hits(), o.Cache.Misses(); h != 0 || m != 10 {
		t.Fatalf("corrupt entries must all miss: hits=%d misses=%d, want 0/10", h, m)
	}
	if warm != cold {
		t.Errorf("post-corruption output differs:\n--- cold ---\n%s\n--- rerun ---\n%s", cold, warm)
	}
	// The rerun must have re-primed valid entries: a third pass hits.
	renderFig5(t, o)
	if h := o.Cache.Hits(); h != 5 {
		t.Fatalf("re-primed pass: hits=%d, want 5", h)
	}
}

// TestWarmStartPrefixPastDrain checks a prefix longer than the whole run:
// the job completes during the warm-up, never caches, and still returns the
// correct result.
func TestWarmStartPrefixPastDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("full-platform runs")
	}
	o := warmOpts(t, 1<<40)
	plain := renderFig5(t, Options{Scale: o.Scale, Seed: o.Seed, Workers: o.Workers})
	cold := renderFig5(t, o)
	if cold != plain {
		t.Errorf("over-long prefix changed the output:\n--- plain ---\n%s\n--- cached ---\n%s", plain, cold)
	}
	ents, err := os.ReadDir(o.Cache.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("drained-before-prefix runs must not cache, found %d entries", len(ents))
	}
}
