package iptg

import (
	"bytes"
	"reflect"
	"testing"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/snapshot"
)

// countProbe counts the lifecycle events a port fires.
type countProbe struct{ issued, completed int }

func (p *countProbe) RequestIssued(*bus.Request)           { p.issued++ }
func (p *countProbe) RequestCompleted(*bus.Request, int64) { p.completed++ }

// bareIssuer is an Issuer on a port no fabric drains: the test plays the
// fabric, popping requests and pushing response beats itself.
type bareIssuer struct {
	s     *Issuer
	pool  *bus.RequestPool
	probe *countProbe
	col   *attr.Collector
	// done records the tags handed to the owner, and free the pool's free
	// count at each hand-over.
	done, free []int
}

func newBareIssuer(agents ...string) *bareIssuer {
	b := &bareIssuer{s: &Issuer{}, pool: &bus.RequestPool{}, probe: &countProbe{}, col: attr.NewCollector(0)}
	clk := sim.NewKernel().NewClock("clk", 250)
	b.s.Init(bus.NewInitiatorPort("ip", 4, 8), clk, &bus.IDSource{}, 3, agents, func(tag int) {
		b.done = append(b.done, tag)
		b.free = append(b.free, b.pool.Free())
	})
	b.s.UseRequestPool(b.pool)
	b.s.UseAttribution(b.col)
	b.s.Port().Probe = b.probe
	return b
}

// accept commits the request FIFO and pops the request the fabric takes.
func (b *bareIssuer) accept() *bus.Request {
	p := b.s.Port()
	p.Update()
	return p.Req.Pop()
}

// respond pushes beats for req (the last one final) and commits them.
func (b *bareIssuer) respond(req *bus.Request, beats int) {
	p := b.s.Port()
	for i := 0; i < beats; i++ {
		p.Resp.Push(bus.Beat{Req: req, Idx: i, Last: i == beats-1})
	}
	p.Update()
}

func TestIssuerPostedWriteCompletesAtIssue(t *testing.T) {
	b := newBareIssuer("a")
	b.s.Issue(0, bus.Request{Op: bus.OpWrite, Posted: true, Beats: 2, BytesPerBeat: 8}, true)
	if b.s.Issued() != 1 || b.s.Completed() != 1 || b.s.InFlight() != 0 {
		t.Fatalf("issued/completed/in flight = %d/%d/%d, want 1/1/0", b.s.Issued(), b.s.Completed(), b.s.InFlight())
	}
	req := b.accept()
	if req.ID == 0 || req.Origin != 3 || req.IssuePS == 0 {
		t.Fatalf("request not stamped: %+v", req)
	}
	st := b.s.Stats()[0]
	if st.Issued != 1 || st.Completed != 1 || st.Writes != 1 || st.Bytes != 16 || st.MaxLatency != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if b.probe.issued != 1 || b.probe.completed != 0 || len(b.done) != 0 {
		t.Fatalf("probe %d/%d, owner handed %v: a posted write fires RequestIssued only", b.probe.issued, b.probe.completed, b.done)
	}
}

func TestIssuerRecyclesUntrackedFinalBeatOnce(t *testing.T) {
	b := newBareIssuer("a")
	b.s.Issue(0, bus.Request{Op: bus.OpWrite, Posted: true, Beats: 1, BytesPerBeat: 8}, true)
	// A non-posting fabric acknowledges the write the issuer completed at
	// issue: the ack is the request's last reference.
	b.respond(b.accept(), 1)
	b.s.Collect()
	b.s.Collect()
	if b.pool.Free() != 1 {
		t.Fatalf("pool holds %d free requests, want the untracked ack's 1", b.pool.Free())
	}
	if b.s.Completed() != 1 || b.probe.completed != 0 || len(b.done) != 0 {
		t.Fatalf("untracked ack completed something: completed %d, probe %d, owner handed %v",
			b.s.Completed(), b.probe.completed, b.done)
	}
}

func TestIssuerTrackedCompletion(t *testing.T) {
	b := newBareIssuer("a", "b")
	b.col.AddInitiator(3, "ip")
	b.s.Issue(1, bus.Request{Op: bus.OpRead, Beats: 2, BytesPerBeat: 8}, true)
	if b.s.InFlight() != 1 || b.s.Completed() != 0 {
		t.Fatalf("in flight %d, completed %d, want 1, 0", b.s.InFlight(), b.s.Completed())
	}
	req := b.accept()
	bus.AttachAttr(b.col, req, req.IssuePS)
	b.respond(req, 2)
	b.s.Collect()
	if b.probe.completed != 1 || b.col.Finished() != 1 {
		t.Fatalf("RequestCompleted fired %d times, attr.Finish %d, want 1 each", b.probe.completed, b.col.Finished())
	}
	if !reflect.DeepEqual(b.done, []int{1}) || !reflect.DeepEqual(b.free, []int{0}) {
		t.Fatalf("owner handed tags %v with %v requests free, want [1] before the request is recycled", b.done, b.free)
	}
	if b.pool.Free() != 1 || b.s.InFlight() != 0 || b.s.Completed() != 1 {
		t.Fatalf("after completion: %d free, %d in flight, %d completed", b.pool.Free(), b.s.InFlight(), b.s.Completed())
	}
	rows := b.s.Stats()
	if rows[0].Issued != 0 || rows[1].Issued != 1 || rows[1].Completed != 1 || rows[1].Reads != 1 || rows[1].Bytes != 16 {
		t.Fatalf("tag 1 did not book into agent b: %+v", rows)
	}
}

func TestIssuerCodecRoundTrips(t *testing.T) {
	b := newBareIssuer("a", "b")
	b.s.Issue(0, bus.Request{Op: bus.OpRead, Beats: 1, BytesPerBeat: 8}, true)
	b.s.Issue(1, bus.Request{Op: bus.OpWrite, Posted: true, Beats: 4, BytesPerBeat: 8}, true)
	b.s.Issue(1, bus.Request{Op: bus.OpWrite, Beats: 2, BytesPerBeat: 8}, false)
	b.respond(b.accept(), 1) // the read completes
	b.s.Collect()
	b.s.Issue(0, bus.Request{Op: bus.OpRead, Beats: 1, BytesPerBeat: 8}, true)
	b.s.Port().Update() // leave requests staged in the port

	e := snapshot.NewEncoder()
	b.s.EncodeIssuerState(e)
	d, err := snapshot.NewDecoder(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r := newBareIssuer("a", "b")
	r.s.DecodeIssuerState(d, nil, 2)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	e2 := snapshot.NewEncoder()
	r.s.EncodeIssuerState(e2)
	if !bytes.Equal(e.Bytes(), e2.Bytes()) {
		t.Fatal("re-encoded issuer state differs")
	}
	if r.s.InFlight() != b.s.InFlight() || r.s.Issued() != 4 || r.s.Completed() != 2 ||
		!reflect.DeepEqual(r.s.Stats(), b.s.Stats()) {
		t.Fatalf("decoded issuer differs: in flight %d/%d, issued %d, completed %d", r.s.InFlight(), b.s.InFlight(), r.s.Issued(), r.s.Completed())
	}
}
