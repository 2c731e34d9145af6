package bus

import (
	"mpsocsim/internal/attr"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/snapshot"
)

// Checkpoint codecs (DESIGN.md §16). A Request is referenced from many
// places at once — port FIFOs, fabric channel state, bridge context maps,
// initiator bookkeeping — and restore must preserve that aliasing exactly,
// so requests serialize through the snapshot's shared-object table: first
// encounter emits the body, later encounters a back-reference.

// Wire markers for EncodeReqRef (same scheme as attr.EncodeRecordRef).
const (
	reqNil  = 0
	reqBody = 1
	reqRefs = 2 // reqRefs+idx references a previously decoded request
)

// EncodeReqRef serializes a (possibly nil, possibly shared) request pointer.
func EncodeReqRef(e *snapshot.Encoder, r *Request) {
	if r == nil {
		e.U(reqNil)
		return
	}
	if r.pooled {
		panic("bus: snapshot reached a request sitting in the pool free list")
	}
	idx, first := e.Ref(r)
	if !first {
		e.U(reqRefs + idx)
		return
	}
	e.U(reqBody)
	e.U(r.ID)
	e.I(int64(r.Src))
	e.I(int64(r.Origin))
	e.U(uint64(r.Op))
	e.U(r.Addr)
	e.I(int64(r.Beats))
	e.I(int64(r.BytesPerBeat))
	e.I(int64(r.Prio))
	e.U(r.MsgSeq)
	e.Bool(r.MsgEnd)
	e.Bool(r.Posted)
	e.I(r.IssueCycle)
	e.I(r.IssuePS)
	attr.EncodeRecordRef(e, r.Attr)
}

// DecodeReqRef restores a request pointer serialized by EncodeReqRef.
// First encounters allocate directly (not through the pool — the restored
// request re-enters the normal lifecycle and reaches the pool when its
// transaction completes; pool counters are restored separately so Recycled
// still matches the uninterrupted run).
func DecodeReqRef(d *snapshot.Decoder, col *attr.Collector) *Request {
	tag := d.U()
	if d.Err() != nil || tag == reqNil {
		return nil
	}
	if tag >= reqRefs {
		r, _ := d.Ref(tag - reqRefs).(*Request)
		if r == nil {
			d.Corrupt("request reference %d is not a request", tag-reqRefs)
		}
		return r
	}
	r := &Request{}
	d.AddRef(r)
	r.ID = d.U()
	r.Src = int(d.I())
	r.Origin = int(d.I())
	op := d.U()
	if op > uint64(OpWrite) {
		d.Corrupt("request opcode %d out of range", op)
		return nil
	}
	r.Op = Op(op)
	r.Addr = d.U()
	r.Beats = int(d.I())
	r.BytesPerBeat = int(d.I())
	r.Prio = int(d.I())
	r.MsgSeq = d.U()
	r.MsgEnd = d.Bool()
	r.Posted = d.Bool()
	r.IssueCycle = d.I()
	r.IssuePS = d.I()
	r.Attr = attr.DecodeRecordRef(d, col)
	return r
}

// DecodeInFlight restores a request a fabric holds in flight (nil allowed)
// and rejects a source outside the fabric's ni initiators, which it indexes
// its ports with.
func DecodeInFlight(d *snapshot.Decoder, col *attr.Collector, ni int) *Request {
	r := DecodeReqRef(d, col)
	if r != nil && (r.Src < 0 || r.Src >= ni) {
		d.Corrupt("in-flight request source %d out of range [0, %d)", r.Src, ni)
	}
	return r
}

// EncodeBeat serializes one response beat (request by reference).
func EncodeBeat(e *snapshot.Encoder, b Beat) {
	EncodeReqRef(e, b.Req)
	e.I(int64(b.Idx))
	e.Bool(b.Last)
}

// DecodeBeat restores a beat serialized by EncodeBeat.
func DecodeBeat(d *snapshot.Decoder, col *attr.Collector) Beat {
	var b Beat
	b.Req = DecodeReqRef(d, col)
	b.Idx = int(d.I())
	b.Last = d.Bool()
	return b
}

// maxPoolFree bounds the decoded free-list size; far above any real run's
// in-flight high-water mark.
const maxPoolFree = 1 << 22

// EncodeState serializes the pool's lifecycle counters and free-list depth.
// The free requests themselves are all identical scrubbed objects, so only
// their count travels.
func (p *RequestPool) EncodeState(e *snapshot.Encoder) {
	e.Tag('L')
	e.I(p.gets)
	e.I(p.news)
	e.U(uint64(len(p.free)))
}

// DecodeState restores a pool serialized by EncodeState, materializing the
// free list as fresh scrubbed requests.
func (p *RequestPool) DecodeState(d *snapshot.Decoder) {
	d.Tag('L')
	p.gets = d.I()
	p.news = d.I()
	n := d.N(maxPoolFree)
	if d.Err() != nil {
		return
	}
	p.free = p.free[:0]
	for i := 0; i < n; i++ {
		p.free = append(p.free, &Request{pooled: true})
	}
}

// State returns the source's last handed-out ID for checkpointing.
func (s *IDSource) State() uint64 { return s.next }

// SetState overwrites the source's position (checkpoint restore).
func (s *IDSource) SetState(v uint64) { s.next = v }

// EncodeInitiatorPortState serializes both FIFOs of an initiator port.
func EncodeInitiatorPortState(e *snapshot.Encoder, p *InitiatorPort) {
	sim.EncodeFifoState(e, p.Req, EncodeReqRef)
	sim.EncodeFifoState(e, p.Resp, EncodeBeat)
}

// DecodeInitiatorPortState restores both FIFOs of an initiator port.
func DecodeInitiatorPortState(d *snapshot.Decoder, p *InitiatorPort, col *attr.Collector) {
	sim.DecodeFifoState(d, p.Req, func(d *snapshot.Decoder) *Request { return DecodeReqRef(d, col) })
	sim.DecodeFifoState(d, p.Resp, func(d *snapshot.Decoder) Beat { return DecodeBeat(d, col) })
}

// EncodeTargetPortState serializes both FIFOs of a target port.
func EncodeTargetPortState(e *snapshot.Encoder, p *TargetPort) {
	sim.EncodeFifoState(e, p.Req, EncodeReqRef)
	sim.EncodeFifoState(e, p.Resp, EncodeBeat)
}

// DecodeTargetPortState restores both FIFOs of a target port.
func DecodeTargetPortState(d *snapshot.Decoder, p *TargetPort, col *attr.Collector) {
	sim.DecodeFifoState(d, p.Req, func(d *snapshot.Decoder) *Request { return DecodeReqRef(d, col) })
	sim.DecodeFifoState(d, p.Resp, func(d *snapshot.Decoder) Beat { return DecodeBeat(d, col) })
}
