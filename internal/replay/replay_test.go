package replay

import (
	"strings"
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/tracecap"
)

// stream builds a simple recorded sequence: n single-beat reads issued gap
// cycles apart, captured in a 250 MHz (4000 ps) domain.
func stream(n int, gap int64) *tracecap.Stream {
	s := &tracecap.Stream{Name: "ip0", PeriodPS: 4000}
	for i := 0; i < n; i++ {
		s.Events = append(s.Events, tracecap.Event{
			IssueCycle:   int64(i) * gap,
			Latency:      10,
			Addr:         uint64(i) * 64,
			Beats:        1,
			BytesPerBeat: 8,
			Op:           bus.OpRead,
		})
	}
	return s
}

// rig wires a replay initiator to an immediate responder that answers every
// request with its final beat after delay cycles, recording issue cycles.
type rig struct {
	k      *sim.Kernel
	clk    *sim.Clock
	in     *Initiator
	issued []int64 // cycle each request was popped from the port
	peak   int     // max simultaneously outstanding requests observed
}

func newRig(t *testing.T, cfg Config, freqMHz float64) *rig {
	t.Helper()
	k := sim.NewKernel()
	clk := k.NewClock("clk", freqMHz)
	in, err := New(cfg, clk, &bus.IDSource{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{k: k, clk: clk, in: in}
	type pending struct {
		req *bus.Request
		due int64
	}
	var queue []pending
	clk.Register(in)
	clk.Register(&sim.ClockedFunc{OnEval: func() {
		for in.Port().Req.CanPop() {
			req := in.Port().Req.Pop()
			r.issued = append(r.issued, clk.Cycles())
			if req.Posted {
				continue // consumed; posted writes get no response
			}
			queue = append(queue, pending{req: req, due: clk.Cycles() + 4})
		}
		if len(queue) > r.peak {
			r.peak = len(queue)
		}
		for len(queue) > 0 && queue[0].due <= clk.Cycles() && in.Port().Resp.CanPush() {
			p := queue[0]
			queue = queue[1:]
			in.Port().Resp.Push(bus.Beat{Req: p.req, Idx: p.req.Beats - 1, Last: true})
		}
	}})
	return r
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if !r.k.RunWhile(func() bool { return !r.in.Done() }, 1e10) {
		t.Fatalf("timeout: issued=%d completed=%d remaining=%d",
			r.in.Issued(), r.in.Completed(), r.in.Remaining())
	}
}

func TestTimedReplayHonoursSchedule(t *testing.T) {
	s := stream(20, 5)
	r := newRig(t, Config{Stream: s, Mode: Timed}, 250)
	r.run(t)
	if got := r.in.Issued(); got != 20 {
		t.Fatalf("issued = %d, want 20", got)
	}
	if got := r.in.Completed(); got != 20 {
		t.Fatalf("completed = %d, want 20", got)
	}
	if r.in.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.in.Remaining())
	}
	// With an unloaded responder every transaction must be popped the cycle
	// after its recorded issue cycle (port FIFO commits at Update).
	for i, c := range r.issued {
		want := s.Events[i].IssueCycle + 1
		if c != want {
			t.Fatalf("txn %d seen at cycle %d, want %d", i, c, want)
		}
	}
}

func TestTimedReplayRescalesAcrossClockDomains(t *testing.T) {
	// Captured at 250 MHz (4000 ps), replayed at 125 MHz (8000 ps): the same
	// absolute instants land on half the cycle numbers.
	s := stream(10, 8)
	r := newRig(t, Config{Stream: s, Mode: Timed}, 125)
	r.run(t)
	for i, c := range r.issued {
		want := s.Events[i].IssueCycle/2 + 1
		if c != want {
			t.Fatalf("txn %d seen at cycle %d, want %d (rescaled from %d)",
				i, c, want, s.Events[i].IssueCycle)
		}
	}
}

func TestElasticReplayRespectsOutstandingWindow(t *testing.T) {
	// All events recorded at cycle 0; elastic mode ignores the schedule and
	// is limited only by the outstanding window.
	s := stream(30, 0)
	r := newRig(t, Config{Stream: s, Mode: Elastic, Outstanding: 2}, 250)
	r.run(t)
	if got := r.in.Completed(); got != 30 {
		t.Fatalf("completed = %d, want 30", got)
	}
	if r.peak > 2 {
		t.Fatalf("outstanding window violated: %d in flight", r.peak)
	}
}

func TestElasticFasterThanTimedOnSparseTrace(t *testing.T) {
	s := stream(20, 50) // 50-cycle gaps the elastic replayer should collapse
	timed := newRig(t, Config{Stream: s, Mode: Timed}, 250)
	timed.run(t)
	elastic := newRig(t, Config{Stream: s, Mode: Elastic, Outstanding: 8}, 250)
	elastic.run(t)
	if elastic.clk.Cycles() >= timed.clk.Cycles() {
		t.Fatalf("elastic (%d cycles) not faster than timed (%d cycles)",
			elastic.clk.Cycles(), timed.clk.Cycles())
	}
}

func TestPostedWritesCompleteAtIssue(t *testing.T) {
	s := &tracecap.Stream{Name: "ip0", PeriodPS: 4000}
	for i := 0; i < 10; i++ {
		s.Events = append(s.Events, tracecap.Event{
			IssueCycle: int64(i), Latency: 0, Addr: uint64(i) * 64,
			Beats: 2, BytesPerBeat: 8, Op: bus.OpWrite, Posted: true,
		})
	}
	r := newRig(t, Config{Stream: s, Mode: Timed}, 250)
	r.run(t)
	if got := r.in.Completed(); got != 10 {
		t.Fatalf("completed = %d, want 10", got)
	}
	reg := metrics.NewRegistry()
	r.in.RegisterMetrics(reg, "clk")
	if h := reg.Snapshot().Histogram("ip.ip0.replay[timed].latency"); h.N != 0 {
		t.Fatalf("posted writes must not enter the latency histogram (n=%d)", h.N)
	}
}

func TestStatsShape(t *testing.T) {
	r := newRig(t, Config{Stream: stream(5, 3), Mode: Elastic}, 250)
	r.run(t)
	st := r.in.Stats()
	if len(st) != 1 {
		t.Fatalf("stats rows = %d", len(st))
	}
	if st[0].Name != "replay[elastic]" {
		t.Fatalf("agent name = %q", st[0].Name)
	}
	if st[0].Issued != 5 || st[0].Completed != 5 || st[0].Reads != 5 {
		t.Fatalf("stats = %+v", st[0])
	}
	if st[0].MeanLatency <= 0 {
		t.Fatal("latency not recorded")
	}
	if r.in.Name() != "ip0" || r.in.Origin() != 3 {
		t.Fatalf("identity: name=%q origin=%d", r.in.Name(), r.in.Origin())
	}
}

func TestUntrackedResponseBeatsIgnored(t *testing.T) {
	k := sim.NewKernel()
	clk := k.NewClock("clk", 250)
	in := MustNew(Config{Stream: stream(1, 0), Mode: Timed}, clk, &bus.IDSource{}, 0)
	clk.Register(in)
	stray := &bus.Request{ID: 9999, Beats: 1, BytesPerBeat: 8, Op: bus.OpWrite, Posted: true}
	clk.Register(&sim.ClockedFunc{OnEval: func() {
		for in.Port().Req.CanPop() {
			req := in.Port().Req.Pop()
			// echo a stray ack first — some bridges do this for posted
			// writes the target already consumed — then the real response
			in.Port().Resp.Push(bus.Beat{Req: stray, Idx: 0, Last: true})
			in.Port().Resp.Push(bus.Beat{Req: req, Idx: req.Beats - 1, Last: true})
		}
	}})
	if !k.RunWhile(func() bool { return !in.Done() }, 1e8) {
		t.Fatalf("stray beat stalled the replayer: issued=%d completed=%d",
			in.Issued(), in.Completed())
	}
	if in.Completed() != 1 {
		t.Fatalf("completed = %d, want 1 (stray beat must not count)", in.Completed())
	}
}

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"timed", Timed, true},
		{"elastic", Elastic, true},
		{"", 0, false},
		{"TIMED", 0, false},
		{"bursty", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseMode(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("ParseMode(%q) err = %v", tc.in, err)
		}
		if tc.ok && got != tc.want {
			t.Fatalf("ParseMode(%q) = %v", tc.in, got)
		}
		if !tc.ok && err != nil && !strings.Contains(err.Error(), "mode") {
			t.Fatalf("error %q does not name the problem", err)
		}
	}
	if Timed.String() != "timed" || Elastic.String() != "elastic" {
		t.Fatal("mode names wrong")
	}
	if Mode(7).String() != "Mode(7)" {
		t.Fatalf("unknown mode string %q", Mode(7).String())
	}
}

func TestNilStreamRejected(t *testing.T) {
	clk := sim.NewKernel().NewClock("c", 100)
	if _, err := New(Config{}, clk, &bus.IDSource{}, 0); err == nil {
		t.Fatal("nil stream accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{}, clk, &bus.IDSource{}, 0)
}
