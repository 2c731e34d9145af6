// Package bus defines the protocol-independent vocabulary shared by every
// interconnect fabric in the platform: requests, response beats, the
// initiator/target port pairs through which components attach to a fabric,
// and the address map used for target decoding.
//
// A fabric (internal/stbus, internal/ahb, internal/axi) is a sim.Clocked
// component that moves Requests from InitiatorPorts to TargetPorts and
// response Beats back, according to its protocol's arbitration and
// outstanding-transaction rules. Initiators (internal/iptg,
// internal/dspcore, bridge initiator sides) and targets (internal/mem,
// internal/lmi, bridge target sides) see only the port types defined here,
// so any component composes with any fabric.
package bus

import (
	"fmt"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/sim"
)

// Op is a transaction opcode.
type Op uint8

// Transaction opcodes.
const (
	OpRead Op = iota
	OpWrite
)

// String returns "R" or "W".
func (o Op) String() string {
	if o == OpRead {
		return "R"
	}
	return "W"
}

// Request is one bus transaction (a burst). Data is not carried — the model
// is timing-accurate, not data-accurate, exactly like the paper's IPTG-based
// platform where traffic shape, not payload, determines performance.
type Request struct {
	// ID is globally unique, assigned by the issuing initiator.
	ID uint64
	// Src identifies the initiator port index on the fabric where the
	// request entered (source labelling, STBus Type >=2). Fabrics and
	// bridges rewrite Src at each layer boundary to route responses.
	Src int
	// Origin preserves the system-wide initiator identity across bridges
	// for end-to-end statistics.
	Origin int
	Op     Op
	Addr   uint64
	// Beats is the number of data beats in the burst at the current
	// fabric's data width. Width converters rescale it.
	Beats int
	// BytesPerBeat is the data width in bytes at the current fabric.
	BytesPerBeat int
	// Prio is the arbitration priority (higher wins) where the protocol
	// supports priority labelling.
	Prio int
	// MsgSeq and MsgEnd implement STBus message-based arbitration:
	// consecutive requests of one message carry the same MsgSeq from one
	// initiator, and the arbiter holds the grant until MsgEnd.
	MsgSeq uint64
	MsgEnd bool
	// Posted marks a posted write: the fabric acknowledges it at
	// acceptance and no response is routed back to the initiator.
	Posted bool
	// IssueCycle/IssuePS record when the initiator issued the request,
	// for latency accounting (in the initiator's clock domain and in
	// absolute picoseconds).
	IssueCycle int64
	IssuePS    int64

	// Attr, when non-nil, is the transaction's latency-attribution segment
	// log (internal/attr). Fabrics attach it lazily at the first
	// head-of-queue scan when attribution is enabled; every later stamping
	// site guards on nil, so a disabled run costs one pointer check. A
	// bridge's clone shares the original's record — whichever copy a
	// component recycles first must clear Attr so the record follows the
	// live copy.
	Attr *attr.Record

	// pooled marks a request currently sitting in a RequestPool free list;
	// it guards against double-Put lifecycle bugs.
	pooled bool
}

// Bytes returns the total payload size of the burst.
func (r *Request) Bytes() int { return r.Beats * r.BytesPerBeat }

// String formats a compact request description for traces.
func (r *Request) String() string {
	return fmt.Sprintf("%s#%d src%d @%#x %dx%dB", r.Op, r.ID, r.Src, r.Addr, r.Beats, r.BytesPerBeat)
}

// AttachAttr is the fabric-side head-of-queue attribution stamp: it lazily
// opens the request's attribution record on first contact (recovering the
// initiator-queue wait retroactively from IssuePS) and marks the transition
// from queueing to arbitration wait. Fabrics call it for each poppable
// initiator-port head not yet carrying a record, and again at the grant/pop
// site as a fallback (idempotent either way). Zero
// allocations in steady state (records come from the collector free list).
func AttachAttr(col *attr.Collector, req *Request, nowPS int64) {
	if req.Attr == nil {
		issue := req.IssuePS
		if issue == 0 || issue > nowPS {
			// Initiators stamp IssuePS at issue; a zero means the request
			// came from outside the platform wiring (unit tests) — fall
			// back to first-contact time so durations stay sane.
			issue = nowPS
		}
		req.Attr = col.Start(req.Origin, issue, req.Op == OpWrite, req.Posted)
	}
	req.Attr.EnterFrom(attr.PhaseInitQueue, attr.PhaseArbWait, nowPS)
}

// Beat is one response data beat (for reads) or the write acknowledgement
// (for non-posted writes, a single beat with Last=true).
type Beat struct {
	Req  *Request
	Idx  int
	Last bool
}

// PortProbe observes the transaction lifecycle at an initiator port. Trace
// capture (internal/tracecap) is the platform's only probe, and a port
// carries one only while capture is attached. Probes are passive: they must
// not mutate the request, and they run inline on the simulation hot path,
// so implementations must not allocate in steady state (the capture streams
// preallocate their event storage).
type PortProbe interface {
	// RequestIssued fires when the initiator stages r into the port's
	// request FIFO. The request's IssueCycle is already set; posted writes
	// will produce no RequestCompleted call.
	RequestIssued(r *Request)
	// RequestCompleted fires when the initiator consumes the final
	// response beat of a tracked request, before the request is recycled.
	// cycle is the completion time in the initiator's clock domain.
	RequestCompleted(r *Request, cycle int64)
}

// InitiatorPort attaches an initiator to a fabric: the initiator pushes
// Requests into Req and pops response Beats from Resp. The fabric owns the
// arbitration over when Req entries drain.
type InitiatorPort struct {
	Name string
	Req  *Queue
	Resp *BeatQueue
	// Probe, when non-nil, observes every transaction crossing this port;
	// platform.AttachCapture sets it, and it is nil otherwise. It is
	// honoured by iptg.Issuer, the issue side every traffic source embeds
	// (the IPTG generator, the trace replayer and internal/io's DMA engine,
	// IRQ agents and heap allocator); the DSP core and the bridges do not
	// fire it. Set it before simulation starts.
	Probe PortProbe
}

// TargetPort attaches a target to a fabric: the fabric pushes Requests into
// Req (the target's input FIFO — its depth models the target's buffering,
// e.g. the LMI bus-interface FIFO) and pops response Beats from Resp.
type TargetPort struct {
	Name string
	Req  *Queue
	Resp *BeatQueue
}

// Update commits both FIFOs; the owning fabric or target calls it once per
// cycle of the domain that owns the port.
func (p *InitiatorPort) Update() {
	p.Req.Update()
	p.Resp.Update()
}

// Update commits both FIFOs once per owning-domain cycle.
func (p *TargetPort) Update() {
	p.Req.Update()
	p.Resp.Update()
}

// OwnedBy declares the port's gated owner, the component that commits both
// FIFOs, as the pusher of Req and the popper of Resp (sim.Fifo.PushedBy,
// PoppedBy).
func (p *InitiatorPort) OwnedBy(a *sim.Activity) {
	p.Req.PushedBy(a)
	p.Resp.PoppedBy(a)
}

// OwnedBy declares the port's gated owner, the component that commits both
// FIFOs, as the popper of Req and the pusher of Resp.
func (p *TargetPort) OwnedBy(a *sim.Activity) {
	p.Req.PoppedBy(a)
	p.Resp.PushedBy(a)
}
