package lmi

import (
	"testing"
	"testing/quick"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/sim"
)

// harness drives the controller directly through its target port.
type harness struct {
	k    *sim.Kernel
	clk  *sim.Clock
	c    *Controller
	sent []*bus.Request
	got  []bus.Beat
	at   []int64
	next int
}

func newHarness(cfg Config, reqs []*bus.Request) *harness {
	k := sim.NewKernel()
	clk := k.NewClock("clk", 200)
	c := New("lmi", cfg)
	h := &harness{k: k, clk: clk, c: c, sent: reqs}
	feeder := &sim.ClockedFunc{OnEval: func() {
		if h.next < len(h.sent) && c.Port().Req.CanPush() {
			r := h.sent[h.next]
			r.IssueCycle = clk.Cycles()
			c.Port().Req.Push(r)
			h.next++
		}
		for c.Port().Resp.CanPop() {
			h.got = append(h.got, c.Port().Resp.Pop())
			h.at = append(h.at, clk.Cycles())
		}
	}}
	clk.Register(feeder)
	clk.Register(c)
	return h
}

func (h *harness) expected() int {
	n := 0
	for _, r := range h.sent {
		if r.Op == bus.OpRead {
			n += r.Beats
		} else if !r.Posted {
			n++
		}
	}
	return n
}

func (h *harness) run(t *testing.T) {
	t.Helper()
	want := h.expected()
	if !h.k.RunWhile(func() bool { return len(h.got) < want }, 1e10) {
		t.Fatalf("timeout: %d of %d beats", len(h.got), want)
	}
}

func rd(id, addr uint64, beats int) *bus.Request {
	return &bus.Request{ID: id, Src: int(id % 3), Op: bus.OpRead, Addr: addr, Beats: beats, BytesPerBeat: 8}
}

func wrN(id, addr uint64, beats int) *bus.Request {
	return &bus.Request{ID: id, Src: int(id % 3), Op: bus.OpWrite, Addr: addr, Beats: beats, BytesPerBeat: 8}
}

func TestReadFirstWordLatency(t *testing.T) {
	h := newHarness(DefaultConfig(), []*bus.Request{rd(1, 0x1000, 4)})
	h.run(t)
	if len(h.got) != 4 {
		t.Fatalf("beats = %d", len(h.got))
	}
	// ~11 cycles from sampling to first read data (paper §4.2): allow a
	// modest band around it for the row-miss command sequence.
	first := h.at[0] - 1 // request issued on cycle 1
	if first < 8 || first > 18 {
		t.Fatalf("first-word latency = %d cycles, want ~11", first)
	}
	for i, b := range h.got {
		if b.Idx != i || (b.Last != (i == 3)) {
			t.Fatalf("beat %d malformed", i)
		}
	}
}

func TestWriteAckAndPosted(t *testing.T) {
	h := newHarness(DefaultConfig(), []*bus.Request{wrN(1, 0x100, 4)})
	h.run(t)
	if len(h.got) != 1 || !h.got[0].Last {
		t.Fatalf("want single ack, got %d beats", len(h.got))
	}
	p := wrN(2, 0x200, 4)
	p.Posted = true
	h2 := newHarness(DefaultConfig(), []*bus.Request{p, rd(3, 0x300, 1)})
	h2.run(t)
	if len(h2.got) != 1 || h2.got[0].Req.ID != 3 {
		t.Fatal("posted write must not produce a response")
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	cfg := DefaultConfig()
	rowStride := uint64(1<<uint(cfg.SDRAM.Geometry.ColBits)) * uint64(cfg.SDRAM.Geometry.BytesPerCol) * uint64(cfg.SDRAM.Geometry.Banks)

	// hit pair: two reads in the same row
	hHit := newHarness(cfg, []*bus.Request{rd(1, 0x0, 4), rd(2, 0x40, 4)})
	hHit.run(t)
	hitTime := hHit.at[len(hHit.at)-1]

	// miss pair: second read forces precharge+activate in the same bank
	hMiss := newHarness(cfg, []*bus.Request{rd(1, 0x0, 4), rd(2, rowStride, 4)})
	hMiss.run(t)
	missTime := hMiss.at[len(hMiss.at)-1]

	if hitTime >= missTime {
		t.Fatalf("row hit (%d cycles) should beat row miss (%d cycles)", hitTime, missTime)
	}
}

func TestLookaheadReordersRowHit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LookaheadDepth = 4
	rowStride := uint64(1<<uint(cfg.SDRAM.Geometry.ColBits)) * uint64(cfg.SDRAM.Geometry.BytesPerCol) * uint64(cfg.SDRAM.Geometry.Banks)
	// warm up row 0, then queue a miss (different row, same bank) and a
	// hit (row 0) from different sources; the hit should be served first.
	warm := rd(1, 0x0, 1)
	warm.Src = 0
	miss := rd(2, rowStride, 1)
	miss.Src = 1
	hit := rd(3, 0x80, 1)
	hit.Src = 2
	h := newHarness(cfg, []*bus.Request{warm, miss, hit})
	h.run(t)
	order := []uint64{}
	for _, b := range h.got {
		order = append(order, b.Req.ID)
	}
	if !(order[0] == 1 && order[1] == 3 && order[2] == 2) {
		t.Fatalf("service order = %v, want [1 3 2] (lookahead row-hit first)", order)
	}
	if h.c.Stats().LookaheadHits == 0 {
		t.Fatal("lookahead hit not counted")
	}
}

func TestFCFSWithoutLookahead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LookaheadDepth = 0
	rowStride := uint64(1<<uint(cfg.SDRAM.Geometry.ColBits)) * uint64(cfg.SDRAM.Geometry.BytesPerCol) * uint64(cfg.SDRAM.Geometry.Banks)
	warm := rd(1, 0x0, 1)
	miss := rd(2, rowStride, 1)
	miss.Src = 1
	hit := rd(3, 0x80, 1)
	hit.Src = 2
	h := newHarness(cfg, []*bus.Request{warm, miss, hit})
	h.run(t)
	order := []uint64{}
	for _, b := range h.got {
		order = append(order, b.Req.ID)
	}
	if !(order[0] == 1 && order[1] == 2 && order[2] == 3) {
		t.Fatalf("service order = %v, want FCFS [1 2 3]", order)
	}
}

func TestPerSourceOrderPreserved(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LookaheadDepth = 4
	rowStride := uint64(1<<uint(cfg.SDRAM.Geometry.ColBits)) * uint64(cfg.SDRAM.Geometry.BytesPerCol) * uint64(cfg.SDRAM.Geometry.Banks)
	// same source issues miss then hit: lookahead must NOT reorder them
	warm := rd(1, 0x0, 1)
	warm.Src = 0
	miss := rd(2, rowStride, 1)
	miss.Src = 5
	hit := rd(3, 0x80, 1)
	hit.Src = 5
	h := newHarness(cfg, []*bus.Request{warm, miss, hit})
	h.run(t)
	order := []uint64{}
	for _, b := range h.got {
		order = append(order, b.Req.ID)
	}
	if !(order[1] == 2 && order[2] == 3) {
		t.Fatalf("service order = %v: same-source requests were reordered", order)
	}
}

func TestOpcodeMergingCounted(t *testing.T) {
	cfg := DefaultConfig()
	var reqs []*bus.Request
	for i := uint64(0); i < 6; i++ {
		r := rd(i+1, i*0x40, 4) // all in row 0: sequential merge run
		r.Src = int(i)
		reqs = append(reqs, r)
	}
	h := newHarness(cfg, reqs)
	h.run(t)
	if h.c.Stats().MergedRuns == 0 {
		t.Fatal("sequential same-row reads should merge")
	}

	cfg2 := DefaultConfig()
	cfg2.OpcodeMerging = false
	var reqs2 []*bus.Request
	for i := uint64(0); i < 6; i++ {
		r := rd(i+1, i*0x40, 4)
		r.Src = int(i)
		reqs2 = append(reqs2, r)
	}
	h2 := newHarness(cfg2, reqs2)
	h2.run(t)
	if h2.c.Stats().MergedRuns != 0 {
		t.Fatal("merging disabled but counted")
	}
	// merging must not be slower
	if h.at[len(h.at)-1] > h2.at[len(h2.at)-1] {
		t.Fatalf("merging (%d cycles) slower than non-merging (%d cycles)",
			h.at[len(h.at)-1], h2.at[len(h2.at)-1])
	}
}

func TestRefreshIssued(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SDRAM.Timing.TREFI = 200 // frequent refresh for the test
	var reqs []*bus.Request
	for i := uint64(0); i < 40; i++ {
		r := rd(i+1, i*0x40, 4)
		r.Src = int(i % 3)
		reqs = append(reqs, r)
	}
	h := newHarness(cfg, reqs)
	h.run(t)
	if h.c.Stats().SDRAM.Refreshes == 0 {
		t.Fatal("no refresh issued over a long run")
	}
}

func TestMonitorFractionsPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PhaseWindow = 100
	var reqs []*bus.Request
	for i := uint64(0); i < 30; i++ {
		r := rd(i+1, i*0x40, 8)
		r.Src = int(i % 3)
		reqs = append(reqs, r)
	}
	h := newHarness(cfg, reqs)
	h.run(t)
	m := h.c.Monitor()
	sum := m.TotalFrac(StateFull) + m.TotalFrac(StateStoring) + m.TotalFrac(StateNoRequest)
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("state fractions sum to %v, want 1", sum)
	}
	if m.Cycles() == 0 {
		t.Fatal("monitor observed nothing")
	}
	if m.TotalFrac(StateStoring) == 0 {
		t.Fatal("storing cycles expected")
	}
	ws := m.Windows()
	if len(ws) == 0 {
		t.Fatal("no windows recorded")
	}
	for _, w := range ws {
		s := w.FullFrac + w.StoringFrac + w.NoRequestFrac
		if s < 0.999 || s > 1.001 {
			t.Fatalf("window fractions sum to %v", s)
		}
	}
	ph := m.Phase(0, m.Cycles())
	if ph.FullFrac < 0 || ph.FullFrac > 1 {
		t.Fatalf("phase full frac %v", ph.FullFrac)
	}
}

func TestUtilizationBounds(t *testing.T) {
	h := newHarness(DefaultConfig(), []*bus.Request{rd(1, 0x0, 4)})
	h.run(t)
	if u := h.c.Stats().Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
	var s Stats
	if s.Utilization() != 0 {
		t.Fatal("zero stats utilization")
	}
}

// Property: any random request mix completes with exact beat counts, in
// per-source order, for any lookahead depth and merging setting.
func TestPropertyCompletionAndSourceOrder(t *testing.T) {
	prop := func(seed uint64, n8, la8 uint8, merge bool) bool {
		rng := sim.NewRand(seed)
		cfg := DefaultConfig()
		cfg.LookaheadDepth = int(la8 % 6)
		cfg.OpcodeMerging = merge
		n := int(n8%24) + 1
		var reqs []*bus.Request
		for i := 0; i < n; i++ {
			r := &bus.Request{
				ID:           uint64(i + 1),
				Src:          rng.Intn(3),
				Addr:         uint64(rng.Intn(1 << 22)),
				Beats:        rng.Range(1, 8),
				BytesPerBeat: 8,
			}
			if rng.Bool(0.4) {
				r.Op = bus.OpWrite
			}
			reqs = append(reqs, r)
		}
		h := newHarness(cfg, reqs)
		want := h.expected()
		h.k.RunWhile(func() bool { return len(h.got) < want }, 1e10)
		if len(h.got) != want {
			return false
		}
		// per-source first-beat order must match per-source issue order
		perSrcIssued := map[int][]uint64{}
		for _, r := range reqs {
			if r.Op == bus.OpRead || !r.Posted {
				perSrcIssued[r.Src] = append(perSrcIssued[r.Src], r.ID)
			}
		}
		perSrcSeen := map[int][]uint64{}
		seen := map[uint64]bool{}
		for _, b := range h.got {
			if !seen[b.Req.ID] {
				seen[b.Req.ID] = true
				perSrcSeen[b.Req.Src] = append(perSrcSeen[b.Req.Src], b.Req.ID)
			}
		}
		for src, issued := range perSrcIssued {
			got := perSrcSeen[src]
			if len(got) != len(issued) {
				return false
			}
			for i := range issued {
				if issued[i] != got[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorStateIndices pins the index constants sample observes by to the
// trackers' state lists.
func TestMonitorStateIndices(t *testing.T) {
	m := newMonitor(16)
	for idx, name := range map[int]string{idxFull: StateFull, idxStoring: StateStoring, idxNoRequest: StateNoRequest} {
		if got := m.phases.States()[idx]; got != name {
			t.Errorf("phase index %d is %q, want %q", idx, got, name)
		}
	}
	for idx, name := range map[int]string{idxEmpty: stateEmpty, idxNonEmpty: stateNonEmpty} {
		if got := m.empty.States()[idx]; got != name {
			t.Errorf("empty index %d is %q, want %q", idx, got, name)
		}
	}
}
