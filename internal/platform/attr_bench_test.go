package platform

import "testing"

// benchRun builds the scale-0.25 reference platform (optionally with
// attribution) and runs it to drain. These exist for profiling the
// attribution hot path in isolation (go test -bench RunPhase -cpuprofile);
// the paired instrumentation cost is perfbench's observe_replay workload.
func benchRun(b *testing.B, withAttr bool) {
	for i := 0; i < b.N; i++ {
		s := DefaultSpec()
		s.WorkloadScale = 0.25
		p := MustBuild(s)
		if withAttr {
			p.EnableAttribution(0)
		}
		if r := p.Run(5e12); !r.Done {
			b.Fatal("run did not drain")
		}
	}
}

func BenchmarkRunPhaseBare(b *testing.B) { benchRun(b, false) }
func BenchmarkRunPhaseAttr(b *testing.B) { benchRun(b, true) }
