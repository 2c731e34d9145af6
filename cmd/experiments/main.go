// Command experiments regenerates every table and figure of the paper's
// evaluation section:
//
//	experiments sec411   single layer, many-to-many protocol comparison
//	experiments sec412   single layer, many-to-one (memory-centric) bound
//	experiments fig3     platform instances with on-chip memory
//	experiments fig4     distributed vs centralized vs memory speed
//	experiments fig5     platform instances with LMI + DDR SDRAM
//	experiments fig6     fine-grain LMI bus-interface statistics
//	experiments replay   cross-fabric comparison under recorded stimulus
//	experiments attr     per-phase latency attribution across protocols
//	experiments io       IRQ deadlines under a DMA burst storm, per fabric
//	experiments bisect   first divergent cycle of the STBus-vs-AHB storm
//	experiments all      everything above (bisect excluded: it is a
//	                     localization drill-down, not a figure)
//
// The -scale flag shrinks or grows the workload; -j bounds how many
// independent simulation runs execute concurrently (default: all CPUs,
// -j 1 restores serial execution — the output is byte-identical either
// way). Results are reported as cycle counts and normalized execution
// times, to be compared in shape (who wins, by what factor) against the
// paper.
//
// -warm-cache DIR stops re-simulating identical warm-up prefixes across
// invocations: the first regeneration checkpoints each platform
// configuration (the §4.1 single-layer benches included) -warm-prefix
// central cycles in and stores the snapshots in DIR; later regenerations
// restore them and simulate only the remainder. A run that drains before
// the prefix is never cached.
// Checkpoint restore is bit-identical, so the tables do not change — only
// the wall clock does:
//
//	experiments -warm-cache /tmp/warm fig5   # cold: primes the cache
//	experiments -warm-cache /tmp/warm fig5   # warm: restores 5 prefixes
//
// -live ADDR serves an aggregate JSON progress document (schema
// mpsocsim.progress.jobs/1) at http://ADDR/progress — per-job cycle
// position, budget fraction and ETA, plus the sweep-wide cycles/s — and
// appends the same aggregate rate and slowest-job ETA to the progress line.
//
// `experiments ablations [variant]` runs one named ablation (messaging,
// stbus-types, sdr-ddr, bridge-latency) or, with no variant, all of them.
// Under `all`, a failed figure is reported on stderr and the remaining
// figures still regenerate.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"

	"mpsocsim/internal/area"
	"mpsocsim/internal/bridge"
	"mpsocsim/internal/experiments"
	"mpsocsim/internal/lmi"
	"mpsocsim/internal/profiling"
	"mpsocsim/internal/stbus"
	"mpsocsim/internal/telemetry"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	seed := flag.Uint64("seed", 1, "traffic generator seed")
	jobs := flag.Int("j", runtime.NumCPU(), "max concurrent simulation runs (1 = serial)")
	warmCache := flag.String("warm-cache", "", "directory of warm-start checkpoints: platform runs restore their warm-up prefix from it instead of re-simulating (first run primes it; results stay byte-identical)")
	warmPrefix := flag.Int64("warm-prefix", experiments.DefaultWarmPrefix, "warm-up prefix length in central cycles for -warm-cache")
	quiet := flag.Bool("q", false, "suppress the progress/ETA line")
	liveAddr := flag.String("live", "", "serve aggregate multi-job progress over HTTP on this address (/progress JSON) and add cycles/s + slowest-job ETA to the progress line")
	prof := profiling.DefineFlags()
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] sec411|sec412|fig3|fig4|fig5|fig6|replay|attr|io|bisect|ablations [variant]|area|latency|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) > 1 {
		// Accept flags after the subcommand too (`experiments all -j 8`):
		// the stdlib parser stops at the first positional argument, so
		// re-parse whatever followed it.
		flag.CommandLine.Parse(args[1:])
		args = append(args[:1], flag.Args()...)
	}
	if len(args) < 1 || (len(args) > 1 && args[0] != "ablations") {
		flag.Usage()
		os.Exit(2)
	}
	o := experiments.Options{Scale: *scale, Seed: *seed, Workers: *jobs}
	if !*quiet {
		o.Progress = os.Stderr
	}
	if *liveAddr != "" {
		hub := telemetry.NewHub()
		ln, err := net.Listen("tcp", *liveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: live:", err)
			os.Exit(1)
		}
		go http.Serve(ln, hub.Handler())
		fmt.Fprintf(os.Stderr, "live progress on http://%s/progress\n", ln.Addr())
		o.Live = hub
	}
	if *warmCache != "" {
		cache, err := experiments.NewSnapCache(*warmCache, *warmPrefix)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		o.Cache = cache
	}
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	runErr := run(args[0], args[1:], o)
	stopProf()
	if o.Cache != nil {
		fmt.Fprintf(os.Stderr, "warm-start: %d runs restored from cache, %d primed it\n",
			o.Cache.Hits(), o.Cache.Misses())
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", runErr)
		os.Exit(1)
	}
}

func run(which string, rest []string, o experiments.Options) error {
	w := os.Stdout
	switch which {
	case "sec411":
		r, err := experiments.Sec411(o, nil)
		if err != nil {
			return err
		}
		return r.Write(w)
	case "sec412":
		r, err := experiments.Sec412(o)
		if err != nil {
			return err
		}
		return r.Write(w)
	case "fig3":
		r, err := experiments.Fig3(o)
		if err != nil {
			return err
		}
		return r.Write(w)
	case "fig4":
		r, err := experiments.Fig4(o, nil)
		if err != nil {
			return err
		}
		return r.Write(w)
	case "fig5":
		r, err := experiments.Fig5(o)
		if err != nil {
			return err
		}
		return r.Write(w)
	case "fig6":
		r, err := experiments.Fig6(o)
		if err != nil {
			return err
		}
		return r.Write(w)
	case "replay":
		r, err := experiments.CrossFabricReplay(o)
		if err != nil {
			return err
		}
		return r.Write(w)
	case "latency":
		r, err := experiments.Latency(o)
		if err != nil {
			return err
		}
		return r.Write(w)
	case "attr":
		r, err := experiments.AttrComparison(o)
		if err != nil {
			return err
		}
		return r.Write(w)
	case "io":
		r, err := experiments.IODeadlines(o)
		if err != nil {
			return err
		}
		return r.Write(w)
	case "bisect":
		r, err := experiments.Bisect(o)
		if err != nil {
			return err
		}
		return r.Write(w)
	case "area":
		fmt.Fprintln(w, "== First-order component cost (paper §3.2's bridge-area remark) ==")
		fmt.Fprintln(w)
		dspConv := bridge.GenConv(1)
		dspConv.SrcBytesPerBeat = 4
		if err := area.Report(w, []area.Estimate{
			area.Node(stbus.Config{Type: stbus.Type3, BytesPerBeat: 8}, 5, 3),
			area.Bridge("GenConv 64b (cluster bridge)", bridge.GenConv(1)),
			area.Bridge("GenConv 32->64b (ST220 converter)", dspConv),
			area.Bridge("lightweight bridge 64b", bridge.Lightweight(1)),
			area.Controller(lmi.DefaultConfig()),
		}); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	case "ablations":
		if len(rest) > 0 {
			for _, variant := range rest {
				if err := experiments.RunAblation(w, variant, o); err != nil {
					return err
				}
			}
			return nil
		}
		return experiments.RunAllAblations(w, o)
	case "all":
		// A crashed or non-draining figure must not kill the whole
		// regeneration: report it and keep going (the runner has
		// already converted per-run panics into errors).
		var failed int
		for _, fig := range []struct {
			name string
			run  func() error
		}{
			{"sec411", func() error {
				r, err := experiments.Sec411(o, nil)
				return writeOr(err, func() error { return r.Write(w) })
			}},
			{"sec412", func() error { r, err := experiments.Sec412(o); return writeOr(err, func() error { return r.Write(w) }) }},
			{"fig3", func() error { r, err := experiments.Fig3(o); return writeOr(err, func() error { return r.Write(w) }) }},
			{"fig4", func() error {
				r, err := experiments.Fig4(o, nil)
				return writeOr(err, func() error { return r.Write(w) })
			}},
			{"fig5", func() error { r, err := experiments.Fig5(o); return writeOr(err, func() error { return r.Write(w) }) }},
			{"fig6", func() error { r, err := experiments.Fig6(o); return writeOr(err, func() error { return r.Write(w) }) }},
			{"replay", func() error {
				r, err := experiments.CrossFabricReplay(o)
				return writeOr(err, func() error { return r.Write(w) })
			}},
			{"attr", func() error {
				r, err := experiments.AttrComparison(o)
				return writeOr(err, func() error { return r.Write(w) })
			}},
			{"io", func() error {
				r, err := experiments.IODeadlines(o)
				return writeOr(err, func() error { return r.Write(w) })
			}},
		} {
			if err := fig.run(); err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", fig.name, err)
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d of 9 figures failed", failed)
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", which)
	}
}

// writeOr renders the result only when the run succeeded.
func writeOr(err error, write func() error) error {
	if err != nil {
		return err
	}
	return write()
}
