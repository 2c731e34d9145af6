package platform

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"mpsocsim/internal/iptg"
	"mpsocsim/internal/replay"
	"mpsocsim/internal/snapshot"
	"mpsocsim/internal/tracecap"
)

// checkpointAt is the central-clock cycle the round-trip tests checkpoint
// at: mid-flight for every golden configuration (they drain between ~12k and
// ~38k central cycles).
const checkpointAt = 3000

// obsVariants are the observability configurations the equivalence
// contracts cover. Each prepares a freshly built platform and returns the
// capture session when one was attached (so the recorded trace bytes join
// the comparison).
var obsVariants = []struct {
	name string
	prep func(p *Platform) *tracecap.Capture
}{
	{"plain", func(p *Platform) *tracecap.Capture { return nil }},
	{"capture", func(p *Platform) *tracecap.Capture {
		c := tracecap.NewCapture(p.Spec.Name(), 0)
		p.AttachCapture(c)
		return c
	}},
	{"attr", func(p *Platform) *tracecap.Capture {
		p.EnableAttribution(0)
		return nil
	}},
	{"timelines", func(p *Platform) *tracecap.Capture {
		p.EnableTimelines(50, 0)
		return nil
	}},
}

// uninterruptedRun builds spec, applies prep and runs it to the end. It
// returns the Result, the rendered JSON report and summary bytes, and the
// encoded captured trace (nil when the variant doesn't capture): the
// reference the checkpoint tests compare restored runs against.
func uninterruptedRun(t *testing.T, spec Spec, prep func(*Platform) *tracecap.Capture) (Result, []byte, []byte) {
	t.Helper()
	p := MustBuild(spec)
	c := prep(p)
	r := p.Run(5e12)
	if !r.Done {
		t.Fatalf("%s did not drain (issued=%d completed=%d)", spec.Name(), r.Issued, r.Completed)
	}
	var rep bytes.Buffer
	if err := r.WriteJSON(&rep); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteSummary(&rep); err != nil {
		t.Fatal(err)
	}
	var tb []byte
	if c != nil {
		var buf bytes.Buffer
		if _, err := c.Trace().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		tb = buf.Bytes()
	}
	return r, rep.Bytes(), tb
}

// checkpointRun builds spec, applies the observability variant and, for each
// checkpoint instant in turn, runs to it, snapshots, and restores into a
// fresh platform that carries on from there; the last restored platform
// finishes the run. It returns the final Result with ResumedFromCycle
// cleared — the one field that legitimately distinguishes a restored run —
// plus the rendered report/summary bytes and the encoded captured trace,
// shaped exactly like uninterruptedRun's returns so the two are directly
// comparable.
func checkpointRun(t *testing.T, spec Spec, prep func(*Platform) *tracecap.Capture, at ...int64) (Result, []byte, []byte) {
	t.Helper()
	rp := MustBuild(spec)
	prep(rp)
	for _, c := range at {
		if !rp.RunToCycle(c, 5e12) {
			t.Fatalf("%s drained before checkpoint cycle %d", spec.Name(), c)
		}
		var buf bytes.Buffer
		if err := rp.Snapshot(&buf); err != nil {
			t.Fatalf("Snapshot at cycle %d: %v", c, err)
		}
		var err error
		if rp, err = Restore(spec, bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("Restore at cycle %d: %v", c, err)
		}
		if rp.ResumedCycles() < c {
			t.Fatalf("restored at cycle %d, want >= %d", rp.ResumedCycles(), c)
		}
	}
	r := rp.Run(5e12)
	if !r.Done {
		t.Fatalf("restored %s did not drain (issued=%d completed=%d)", spec.Name(), r.Issued, r.Completed)
	}
	if r.ResumedFromCycle != rp.ResumedCycles() {
		t.Fatalf("Result.ResumedFromCycle = %d, want %d", r.ResumedFromCycle, rp.ResumedCycles())
	}
	r.ResumedFromCycle = 0
	var rep bytes.Buffer
	if err := r.WriteJSON(&rep); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteSummary(&rep); err != nil {
		t.Fatal(err)
	}
	var tb []byte
	if c := rp.Capture(); c != nil {
		var tbuf bytes.Buffer
		if _, err := c.Trace().WriteTo(&tbuf); err != nil {
			t.Fatal(err)
		}
		tb = tbuf.Bytes()
	}
	return r, rep.Bytes(), tb
}

// TestCheckpointRestoreBitIdentical is the checkpoint half of the
// serial-equivalence contract: for every golden configuration and every
// observability variant (plain, attribution, timelines, capture), a run
// interrupted by Snapshot/Restore at a mid-flight cycle must finish
// bit-identical to the uninterrupted run — the full Result, the rendered
// JSON report and text summary, and the captured transaction trace.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	for name, spec := range goldenSpecs() {
		for _, v := range obsVariants {
			ref, refRep, refTrace := uninterruptedRun(t, spec, v.prep)
			t.Run(fmt.Sprintf("%s/%s", name, v.name), func(t *testing.T) {
				r, rep, tr := checkpointRun(t, spec, v.prep, checkpointAt)
				if !reflect.DeepEqual(r, ref) {
					t.Errorf("restored Result differs from uninterrupted (cycles %d vs %d, issued %d vs %d)",
						r.CentralCycles, ref.CentralCycles, r.Issued, ref.Issued)
				}
				if !bytes.Equal(rep, refRep) {
					t.Errorf("restored report/summary bytes differ from uninterrupted (%d vs %d bytes)", len(rep), len(refRep))
				}
				if !bytes.Equal(tr, refTrace) {
					t.Errorf("restored captured trace differs from uninterrupted (%d vs %d bytes)", len(tr), len(refTrace))
				}
			})
		}
	}
}

// TestCheckpointRestoreChainedAcrossConfigs carries the checkpoint contract
// to every protocol × topology × memory combination, to the §4.1
// single-layer bench on every fabric with one memory and with six (one
// memory state section each), to a spec with a field Build normalizes
// (MaxOutstanding 0), and to every observability variant, across a
// chain of restores: the run is checkpointed at checkpointAt/2, restored,
// checkpointed again at checkpointAt from the restored platform, restored
// again and finished. That must still be bit-identical to the
// uninterrupted run, so a restored platform has to re-encode all of its
// state, not only the state a fresh platform holds.
func TestCheckpointRestoreChainedAcrossConfigs(t *testing.T) {
	specs := map[string]Spec{}
	for _, proto := range []Protocol{STBus, AHB, AXI} {
		for _, topo := range []Topology{Distributed, Collapsed} {
			for _, mem := range []MemoryKind{OnChip, LMIDDR} {
				s := quick(proto, topo, mem)
				specs[s.Name()] = s
			}
		}
		for _, memories := range []int{1, 6} {
			specs[fmt.Sprintf("%v/single-layer/%dmem", proto, memories)] = SingleLayerBench(proto, memories, 300, 2, 1)
		}
	}
	// A spec with a field Build normalizes restores from the same value.
	unnormalized := quick(STBus, Collapsed, OnChip)
	unnormalized.MaxOutstanding = 0
	specs[unnormalized.Name()+"/unnormalized"] = unnormalized
	for name, spec := range specs {
		for _, v := range obsVariants {
			t.Run(name+"/"+v.name, func(t *testing.T) {
				ref, refRep, refTrace := uninterruptedRun(t, spec, v.prep)
				r, rep, tr := checkpointRun(t, spec, v.prep, checkpointAt/2, checkpointAt)
				if !reflect.DeepEqual(r, ref) {
					t.Errorf("twice-restored Result differs from uninterrupted (cycles %d vs %d, issued %d vs %d)",
						r.CentralCycles, ref.CentralCycles, r.Issued, ref.Issued)
				}
				if !bytes.Equal(rep, refRep) {
					t.Errorf("twice-restored report/summary bytes differ from uninterrupted (%d vs %d bytes)", len(rep), len(refRep))
				}
				if !bytes.Equal(tr, refTrace) {
					t.Errorf("twice-restored captured trace differs from uninterrupted (%d vs %d bytes)", len(tr), len(refTrace))
				}
			})
		}
	}
}

// TestCheckpointRestoreReplayAcrossConfigs carries the chained checkpoint
// contract to trace-driven platforms: every protocol × topology × memory
// combination replays its own capture, timed and elastic, and a replay
// restored at checkpointAt/2 and again at checkpointAt must finish
// bit-identical to the uninterrupted replay — Result and report bytes.
func TestCheckpointRestoreReplayAcrossConfigs(t *testing.T) {
	plain := obsVariants[0].prep
	for _, proto := range []Protocol{STBus, AHB, AXI} {
		for _, topo := range []Topology{Distributed, Collapsed} {
			for _, mem := range []MemoryKind{OnChip, LMIDDR} {
				base := quick(proto, topo, mem)
				var tr *tracecap.Trace
				for _, mode := range []replay.Mode{replay.Timed, replay.Elastic} {
					t.Run(base.Name()+"/"+mode.String(), func(t *testing.T) {
						if tr == nil {
							_, tr = captureRun(t, base)
						}
						spec := base
						spec.Replay, spec.ReplayMode = tr, mode
						ref, refRep, _ := uninterruptedRun(t, spec, plain)
						r, rep, _ := checkpointRun(t, spec, plain, checkpointAt/2, checkpointAt)
						if !reflect.DeepEqual(r, ref) {
							t.Errorf("twice-restored replay Result differs from uninterrupted (cycles %d vs %d, issued %d vs %d)",
								r.CentralCycles, ref.CentralCycles, r.Issued, ref.Issued)
						}
						if !bytes.Equal(rep, refRep) {
							t.Errorf("twice-restored replay report/summary bytes differ from uninterrupted (%d vs %d bytes)", len(rep), len(refRep))
						}
					})
				}
			}
		}
	}
}

// TestCheckpointRestoreIOAcrossConfigs does the same for platforms with the
// I/O subsystem attached (DMA engine, IRQ agents, heap allocator) on every
// protocol × topology × memory combination.
func TestCheckpointRestoreIOAcrossConfigs(t *testing.T) {
	plain := obsVariants[0].prep
	for _, proto := range []Protocol{STBus, AHB, AXI} {
		for _, topo := range []Topology{Distributed, Collapsed} {
			for _, mem := range []MemoryKind{OnChip, LMIDDR} {
				spec := quickIO(proto, topo, mem)
				t.Run(spec.Name(), func(t *testing.T) {
					ref, refRep, _ := uninterruptedRun(t, spec, plain)
					r, rep, _ := checkpointRun(t, spec, plain, checkpointAt/2, checkpointAt)
					if !reflect.DeepEqual(r, ref) {
						t.Errorf("twice-restored I/O Result differs from uninterrupted (cycles %d vs %d, issued %d vs %d)",
							r.CentralCycles, ref.CentralCycles, r.Issued, ref.Issued)
					}
					if !bytes.Equal(rep, refRep) {
						t.Errorf("twice-restored I/O report/summary bytes differ from uninterrupted (%d vs %d bytes)", len(rep), len(refRep))
					}
				})
			}
		}
	}
}

// TestSnapshotDeterministic pins that snapshotting the same instant twice
// yields byte-identical streams (the property the experiment harness's
// content-addressed snapshot cache relies on), and that a restored platform
// re-snapshots to the same bytes.
func TestSnapshotDeterministic(t *testing.T) {
	spec := quick(STBus, Distributed, LMIDDR)
	p := MustBuild(spec)
	p.EnableAttribution(4)
	p.EnableTimelines(50, 0)
	if !p.RunToCycle(checkpointAt, 5e12) {
		t.Fatal("drained before checkpoint")
	}
	var a, b bytes.Buffer
	if err := p.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := p.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two snapshots of the same instant differ")
	}
	rp, err := Restore(spec, bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := rp.Snapshot(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatalf("restore-then-snapshot differs from the original (%d vs %d bytes)", len(c.Bytes()), len(a.Bytes()))
	}
}

// TestSnapshotValidation pins the refusal cases: restores reject a
// different spec, truncation and corruption with the sentinel errors.
func TestSnapshotValidation(t *testing.T) {
	spec := quick(STBus, Distributed, LMIDDR)
	p := MustBuild(spec)
	if !p.RunToCycle(checkpointAt, 5e12) {
		t.Fatal("drained before checkpoint")
	}
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	t.Run("wrong-spec", func(t *testing.T) {
		other := spec
		other.Seed = spec.Seed + 1
		if _, err := Restore(other, bytes.NewReader(data)); err == nil {
			t.Fatal("Restore onto a different spec should fail")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] ^= 0xff
		if _, err := Restore(spec, bytes.NewReader(bad)); !errors.Is(err, snapshot.ErrMagic) {
			t.Fatalf("want ErrMagic, got %v", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(snapshot.Magic)] = 0x7f
		if _, err := Restore(spec, bytes.NewReader(bad)); !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("want ErrVersion, got %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 1} {
			if _, err := Restore(spec, bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("Restore of %d/%d bytes should fail", cut, len(data))
			}
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), data...), 0x00)
		if _, err := Restore(spec, bytes.NewReader(bad)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("want ErrCorrupt for trailing bytes, got %v", err)
		}
	})
}

// TestRunToCycleDrainedWorkload pins RunToCycle's false return when the
// workload finishes before the checkpoint instant.
func TestRunToCycleDrainedWorkload(t *testing.T) {
	spec := quick(STBus, Distributed, LMIDDR)
	p := MustBuild(spec)
	if p.RunToCycle(1_000_000_000, 5e12) {
		t.Fatal("RunToCycle past the drain point should return false")
	}
	r := p.Run(5e12)
	if !r.Done {
		t.Fatal("finishing a drained run should report Done")
	}
}

// TestSnapshotEncodableAcrossConfigs snapshots every protocol × topology ×
// memory combination at several mid-run instants. It guards the encoder's
// reachability invariant: no component may hold a dangling pointer to a
// request already recycled through the pool (the walker panics on one), a
// bug class that is timing- and topology-dependent — the lightweight-bridge
// posted-write path only dangles on AXI platforms, for example.
func TestSnapshotEncodableAcrossConfigs(t *testing.T) {
	for _, proto := range []Protocol{STBus, AHB, AXI} {
		for _, topo := range []Topology{Distributed, Collapsed} {
			for _, mem := range []MemoryKind{OnChip, LMIDDR} {
				spec := quick(proto, topo, mem)
				t.Run(spec.Name(), func(t *testing.T) {
					p := MustBuild(spec)
					for c := int64(500); c <= 4000; c += 500 {
						if !p.RunToCycle(c, 5e12) {
							break
						}
						if err := p.Snapshot(io.Discard); err != nil {
							t.Fatalf("cycle %d: %v", c, err)
						}
					}
				})
			}
		}
	}
}

// TestBuildLeavesWorkloadUntouched requires Build to work on a copy of
// Spec.Workload. iptg.New fills defaults into its config's agent and phase
// arrays (a zero-valued agent gets a name, an outstanding window, a region
// and a burst length), and the OutstandingOverride and ForceNonPostedWrites
// edits land on agents too. Writing through would change the spec's
// Fingerprint during Build, so a snapshot would not restore onto an equal
// fresh spec, which is what the warm-start cache does.
func TestBuildLeavesWorkloadUntouched(t *testing.T) {
	for _, topo := range []Topology{Collapsed, Distributed} {
		t.Run(topo.String(), func(t *testing.T) {
			mk := func() Spec {
				s := SingleLayerBench(STBus, 1, 100, 2, 1)
				s.Topology = topo
				s.Workload[0].Agents = append(s.Workload[0].Agents, iptg.AgentConfig{
					Phases:       []iptg.Phase{{Count: 40, ReadFrac: 0.5}},
					PostedWrites: true,
				})
				s.OutstandingOverride = 2
				s.ForceNonPostedWrites = true
				return s
			}
			spec, fresh := mk(), mk()
			p := MustBuild(spec)
			if !reflect.DeepEqual(spec, fresh) {
				t.Fatalf("Build wrote through Spec.Workload: IP 0 is now %+v, was %+v", spec.Workload[0], fresh.Workload[0])
			}
			if !p.RunToCycle(checkpointAt/2, 5e12) {
				t.Fatal("drained before the checkpoint")
			}
			var buf bytes.Buffer
			if err := p.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			q, err := Restore(fresh, &buf)
			if err != nil {
				t.Fatalf("Restore onto an equal fresh spec: %v", err)
			}
			r, rq := p.Run(5e12), q.Run(5e12)
			if !r.Done || r.CentralCycles != rq.CentralCycles || r.Completed != rq.Completed {
				t.Fatalf("restored run ends at %d cycles, %d completed; uninterrupted at %d, %d (done %v)",
					rq.CentralCycles, rq.Completed, r.CentralCycles, r.Completed, r.Done)
			}
		})
	}
}
