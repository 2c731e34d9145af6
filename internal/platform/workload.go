package platform

import (
	"fmt"

	"mpsocsim/internal/iptg"
	"mpsocsim/internal/stbus"
)

// clusterSpec describes one traffic layer: a functional cluster of the
// reference platform, or the layer of a spec's own Workload. In the
// distributed topology each layer runs its own clock domain (the
// heterogeneity the paper's Fig.1 platform exhibits); the
// GenConv/lightweight bridges perform the frequency adaptation toward the
// 250 MHz central node.
type clusterSpec struct {
	name    string
	freqMHz float64
	ips     []iptg.Config
}

// scale multiplies a count by the workload scale, minimum 1.
func scale(n int64, f float64) int64 {
	v := int64(float64(n) * f)
	if v < 1 {
		v = 1
	}
	return v
}

// referenceWorkload builds the five functional clusters of the Fig.1-style
// platform: video decrypting, video decoding, audio + generic DMA, image
// resizing, and the heavily loaded DMA cluster (N5). Address windows are
// disjoint slices of the unified memory so each stream has its own SDRAM
// row locality, as in the real memory-centric platform.
//
// With twoPhase set, every agent runs two regimes: an intense phase with
// short gaps followed by a lower-intensity but burstier phase — the
// application lifetime Fig.6 dissects.
func referenceWorkload(spec Spec) []clusterSpec {
	f := spec.WorkloadScale
	seed := spec.Seed

	phases := func(count int64, gapA, gapB float64, bmin, bmax int, read float64) []iptg.Phase {
		if !spec.TwoPhase {
			return []iptg.Phase{{Count: scale(count, f), GapMean: gapA, BurstMin: bmin, BurstMax: bmax, ReadFrac: read}}
		}
		return []iptg.Phase{
			{Count: scale(count*2/3, f), GapMean: gapA, BurstMin: bmin, BurstMax: bmax, ReadFrac: read},
			{Count: scale(count/3, f), GapMean: gapB, BurstMin: bmin, BurstMax: bmax, ReadFrac: read},
		}
	}

	const mb = 1 << 20
	clusters := []clusterSpec{
		{
			name: "n1_decrypt", freqMHz: 166,
			ips: []iptg.Config{{
				Name: "decrypt",
				Agents: []iptg.AgentConfig{
					{
						Name:        "stream_in",
						Phases:      phases(360, 0, 54, 8, 16, 1.0),
						Outstanding: 4,
						RegionBase:  0 * mb, RegionSize: 2 * mb,
						Pattern: iptg.Sequential,
						MsgLen:  4,
					},
					{
						Name:        "stream_out",
						Phases:      phases(360, 0, 54, 8, 16, 0.0),
						Outstanding: 4,
						RegionBase:  2 * mb, RegionSize: 2 * mb,
						Pattern:      iptg.Sequential,
						MsgLen:       4,
						PostedWrites: true,
						After:        "stream_in", AfterCount: 8,
					},
				},
				BytesPerBeat: 8,
				Seed:         seed ^ 0x11,
			}},
		},
		{
			name: "n2_decode", freqMHz: 200,
			ips: []iptg.Config{{
				Name: "decoder",
				Agents: []iptg.AgentConfig{
					{
						Name:        "ref_fetch",
						Phases:      phases(480, 0, 42, 4, 8, 1.0),
						Outstanding: 6,
						RegionBase:  4 * mb, RegionSize: 4 * mb,
						Pattern: iptg.Random,
						MsgLen:  2,
					},
					{
						Name:        "frame_out",
						Phases:      phases(300, 1, 60, 8, 16, 0.0),
						Outstanding: 4,
						RegionBase:  8 * mb, RegionSize: 2 * mb,
						Pattern:      iptg.Sequential,
						MsgLen:       4,
						PostedWrites: true,
						After:        "ref_fetch", AfterCount: 16,
					},
					{
						Name:        "ctrl",
						Phases:      phases(60, 40, 360, 1, 2, 0.7),
						Outstanding: 1,
						RegionBase:  10 * mb, RegionSize: mb / 4,
						Pattern: iptg.Random,
					},
				},
				BytesPerBeat: 8,
				Seed:         seed ^ 0x22,
			}},
		},
		{
			name: "n3_audio", freqMHz: 133,
			ips: []iptg.Config{
				{
					Name: "audio",
					Agents: []iptg.AgentConfig{{
						Name:        "pcm",
						Phases:      phases(180, 12, 180, 2, 4, 0.6),
						Outstanding: 2,
						RegionBase:  11 * mb, RegionSize: mb,
						Pattern: iptg.Sequential,
					}},
					BytesPerBeat: 8,
					Seed:         seed ^ 0x33,
				},
				{
					Name: "gdma",
					Agents: []iptg.AgentConfig{{
						Name:        "copy",
						Phases:      phases(240, 1, 72, 8, 16, 0.7),
						Outstanding: 4,
						RegionBase:  12 * mb, RegionSize: 2 * mb,
						Pattern: iptg.Sequential,
						MsgLen:  4,
					}},
					BytesPerBeat: 8,
					Seed:         seed ^ 0x44,
				},
			},
		},
		{
			name: "n4_resize", freqMHz: 166,
			ips: []iptg.Config{{
				Name: "resizer",
				Agents: []iptg.AgentConfig{
					{
						Name:        "line_in",
						Phases:      phases(300, 1, 60, 4, 8, 1.0),
						Outstanding: 4,
						RegionBase:  14 * mb, RegionSize: 2 * mb,
						Pattern: iptg.Strided,
						Stride:  0x400,
					},
					{
						Name:        "line_out",
						Phases:      phases(300, 1, 60, 4, 8, 0.0),
						Outstanding: 4,
						RegionBase:  16 * mb, RegionSize: 2 * mb,
						Pattern:      iptg.Sequential,
						PostedWrites: true,
						After:        "line_in", AfterCount: 4,
					},
				},
				BytesPerBeat: 8,
				Seed:         seed ^ 0x55,
			}},
		},
		{
			// N5 — the most heavily congested cluster, removed in the
			// collapsed variants.
			name: "n5_dma", freqMHz: 250,
			ips: []iptg.Config{
				{
					Name: "dma1",
					Agents: []iptg.AgentConfig{{
						Name:        "bulk",
						Phases:      phases(900, 0, 24, 8, 16, 0.75),
						Outstanding: 6,
						RegionBase:  18 * mb, RegionSize: 4 * mb,
						Pattern: iptg.Sequential,
						MsgLen:  4,
					}},
					BytesPerBeat: 8,
					Seed:         seed ^ 0x66,
				},
				{
					Name: "dma2",
					Agents: []iptg.AgentConfig{{
						Name:        "bulk",
						Phases:      phases(900, 0, 24, 8, 16, 0.75),
						Outstanding: 6,
						RegionBase:  22 * mb, RegionSize: 4 * mb,
						Pattern: iptg.Sequential,
						MsgLen:  4,
					}},
					BytesPerBeat: 8,
					Seed:         seed ^ 0x77,
				},
				{
					Name: "dma3",
					Agents: []iptg.AgentConfig{{
						Name:        "scatter",
						Phases:      phases(700, 0, 24, 4, 8, 0.75),
						Outstanding: 4,
						RegionBase:  26 * mb, RegionSize: 4 * mb,
						Pattern: iptg.Random,
					}},
					BytesPerBeat: 8,
					Seed:         seed ^ 0x88,
				},
			},
		},
	}
	return clusters
}

// workload returns the spec's traffic layers: the Fig.1 clusters, or one
// layer of the spec's own IPs, with OutstandingOverride and
// ForceNonPostedWrites applied to every agent. The spec's IPs are deep
// copies, because the overrides here and iptg.New's defaults write into
// the agent and phase arrays, and a spec must keep its Fingerprint through
// Build for Snapshot and Restore to agree.
func workload(spec Spec) []clusterSpec {
	var clusters []clusterSpec
	if len(spec.Workload) > 0 {
		ips := make([]iptg.Config, len(spec.Workload))
		for i, ip := range spec.Workload {
			ip.Agents = append([]iptg.AgentConfig(nil), ip.Agents...)
			for j := range ip.Agents {
				ip.Agents[j].Phases = append([]iptg.Phase(nil), ip.Agents[j].Phases...)
			}
			ips[i] = ip
		}
		clusters = []clusterSpec{{name: "layer", ips: ips}}
	} else {
		clusters = referenceWorkload(spec)
	}
	if spec.OutstandingOverride > 0 || spec.ForceNonPostedWrites {
		for ci := range clusters {
			for ii := range clusters[ci].ips {
				for ai := range clusters[ci].ips[ii].Agents {
					a := &clusters[ci].ips[ii].Agents[ai]
					if spec.OutstandingOverride > 0 {
						a.Outstanding = spec.OutstandingOverride
					}
					if spec.ForceNonPostedWrites {
						a.PostedWrites = false
					}
				}
			}
		}
	}
	return clusters
}

// SingleLayerBench returns the testbench of the paper's §4.1: six traffic
// generators on one collapsed layer of proto, each with one agent issuing
// txns random 4–8-beat reads (mean gap gapMean cycles, 4 outstanding) over
// the whole range of memories on-chip memories of 1 wait state and 2-entry
// response FIFOs. Six memories give the many-to-many traffic of §4.1.1,
// one the many-to-one, memory-centric traffic of §4.1.2. Every field
// Build's defaults would fill is set: Snapshot fingerprints the spec as
// Build normalized it and Restore the caller's, so only a spec that is its
// own normal form restores.
func SingleLayerBench(proto Protocol, memories int, txns int64, gapMean float64, seed uint64) Spec {
	ips := make([]iptg.Config, 6)
	for i := range ips {
		ips[i] = iptg.Config{
			Name: fmt.Sprintf("ini%d", i),
			Agents: []iptg.AgentConfig{{
				Name:        "gen",
				Phases:      []iptg.Phase{{Count: txns, GapMean: gapMean, BurstMin: 4, BurstMax: 8, ReadFrac: 1}},
				Outstanding: 4,
				RegionSize:  uint64(memories) << 24,
				Pattern:     iptg.Random,
				MsgLen:      1,
			}},
			BytesPerBeat: 8,
			Seed:         seed ^ uint64(i)*0x9e37,
		}
	}
	return Spec{
		Protocol:         proto,
		Topology:         Collapsed,
		Memory:           OnChip,
		OnChipWaitStates: 1,
		OnChipMemories:   memories,
		STBusType:        stbus.Type3,
		MaxOutstanding:   8,
		TargetRespDepth:  2,
		WorkloadScale:    1,
		Seed:             seed,
		Workload:         ips,
	}
}
