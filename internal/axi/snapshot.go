package axi

import (
	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/snapshot"
)

// EncodeState serializes the interconnect's mutable state (DESIGN.md §16):
// per-slave write-channel occupancy and register-stage pipes, per-master
// ordering windows and response pipes, and the activity counters. Ports
// belong to the attached components and are serialized by their owners.
func (x *Interconnect) EncodeState(e *snapshot.Encoder) {
	e.Tag('X')
	e.U(uint64(len(x.ts)))
	for t := range x.ts {
		pt := &x.ts[t]
		bus.EncodeReqRef(e, pt.wCur)
		e.I(int64(pt.wBeatsLeft))
		e.I(int64(pt.arRR))
		e.I(int64(pt.awRR))
		e.I(pt.busyAR)
		e.I(pt.busyW)
		e.U(uint64(len(pt.reqPipe)))
		for j := range pt.reqPipe {
			bus.EncodeReqRef(e, pt.reqPipe[j].req)
			e.I(pt.reqPipe[j].at)
		}
	}
	e.U(uint64(len(x.is)))
	for i := range x.is {
		pi := &x.is[i]
		e.I(int64(pi.rRR))
		e.I(int64(pi.bRR))
		e.I(pi.busyR)
		e.I(pi.busyB)
		e.I(int64(pi.outst))
		e.I(int64(pi.outTarget))
		encodeIDs(e, pi.oldestR)
		encodeIDs(e, pi.oldestW)
		encodeBeatPipe(e, pi.respPipeR)
		encodeBeatPipe(e, pi.respPipeB)
	}
	e.U(uint64(len(x.attrHead)))
	for _, h := range x.attrHead {
		e.Bool(h)
	}
	e.I(x.cycles)
	e.I(x.forwarded)
	e.I(x.beatsOut)
	e.I(x.wStalls)
}

func encodeIDs(e *snapshot.Encoder, ids []uint64) {
	e.U(uint64(len(ids)))
	for _, id := range ids {
		e.U(id)
	}
}

func encodeBeatPipe(e *snapshot.Encoder, pipe []pipedBeat) {
	e.U(uint64(len(pipe)))
	for j := range pipe {
		bus.EncodeBeat(e, pipe[j].beat)
		e.I(pipe[j].at)
	}
}

// DecodeState restores an interconnect serialized by EncodeState. Every
// pointer and in-flight request source it restores must index the attached
// ports, and every register-stage entry must hold a request.
func (x *Interconnect) DecodeState(d *snapshot.Decoder, col *attr.Collector) {
	d.Tag('X')
	nt := d.N(1 << 16)
	if d.Err() != nil {
		return
	}
	if nt != len(x.ts) {
		d.Corrupt("axi %q slave count %d does not match platform's %d", x.name, nt, len(x.ts))
		return
	}
	for t := range x.ts {
		pt := &x.ts[t]
		pt.wCur = bus.DecodeInFlight(d, col, len(x.is))
		pt.wBeatsLeft = int(d.I())
		pt.arRR = d.Int(0, max(len(x.is)-1, 0), "axi %q slave %d AR pointer", x.name, t)
		pt.awRR = d.Int(0, max(len(x.is)-1, 0), "axi %q slave %d AW pointer", x.name, t)
		pt.busyAR = d.I()
		pt.busyW = d.I()
		np := d.N(1 << 16)
		pt.reqPipe = pt.reqPipe[:0]
		for j := 0; j < np; j++ {
			req := bus.DecodeInFlight(d, col, len(x.is))
			if req == nil {
				d.Corrupt("axi %q slave %d register stage %d holds no request", x.name, t, j)
			}
			at := d.I()
			pt.reqPipe = append(pt.reqPipe, pipedReq{req: req, at: at})
		}
		if d.Err() != nil {
			return
		}
	}
	ni := d.N(1 << 16)
	if d.Err() != nil {
		return
	}
	if ni != len(x.is) {
		d.Corrupt("axi %q master count %d does not match platform's %d", x.name, ni, len(x.is))
		return
	}
	for i := range x.is {
		pi := &x.is[i]
		pi.rRR = d.Int(0, max(nt-1, 0), "axi %q master %d R pointer", x.name, i)
		pi.bRR = d.Int(0, max(nt-1, 0), "axi %q master %d B pointer", x.name, i)
		pi.busyR = d.I()
		pi.busyB = d.I()
		pi.outst = int(d.I())
		pi.outTarget = int(d.I())
		pi.oldestR = decodeIDs(d, pi.oldestR)
		pi.oldestW = decodeIDs(d, pi.oldestW)
		pi.respPipeR = decodeBeatPipe(d, col, pi.respPipeR)
		pi.respPipeB = decodeBeatPipe(d, col, pi.respPipeB)
		if d.Err() != nil {
			return
		}
	}
	nh := d.N(1 << 16)
	if d.Err() != nil {
		return
	}
	if nh != 0 && nh != len(x.initiators) {
		d.Corrupt("axi %q attr head cache size %d does not match %d masters", x.name, nh, len(x.initiators))
		return
	}
	x.attrHead = x.attrHead[:0]
	for i := 0; i < nh; i++ {
		x.attrHead = append(x.attrHead, d.Bool())
	}
	x.cycles = d.I()
	x.forwarded = d.I()
	x.beatsOut = d.I()
	x.wStalls = d.I()
}

func decodeIDs(d *snapshot.Decoder, ids []uint64) []uint64 {
	n := d.N(1 << 16)
	ids = ids[:0]
	for i := 0; i < n; i++ {
		ids = append(ids, d.U())
	}
	return ids
}

func decodeBeatPipe(d *snapshot.Decoder, col *attr.Collector, pipe []pipedBeat) []pipedBeat {
	n := d.N(1 << 16)
	pipe = pipe[:0]
	for i := 0; i < n; i++ {
		b := bus.DecodeBeat(d, col)
		at := d.I()
		pipe = append(pipe, pipedBeat{beat: b, at: at})
	}
	return pipe
}
