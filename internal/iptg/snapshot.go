package iptg

import (
	"mpsocsim/internal/attr"
	"mpsocsim/internal/snapshot"
)

// EncodeState serializes the generator's mutable state (DESIGN.md §16): the
// issue side, the PRNG, per-agent progress and the round-robin pointer.
// Agent configurations are spec-derived; the issue side's agent count
// guards shape.
func (g *Generator) EncodeState(e *snapshot.Encoder) {
	e.Tag('T')
	g.EncodeIssuerState(e)
	e.U(g.rng.State())
	for _, a := range g.agents {
		e.I(int64(a.phase))
		e.I(a.inPhase)
		e.I(a.gapLeft)
		e.U(a.cursor)
		e.I(int64(a.msgLeft))
		e.U(a.msgSeq)
	}
	e.I(int64(g.rr))
}

// DecodeState restores a generator serialized by EncodeState. An in-flight
// request must be tagged with one of the generator's agents.
func (g *Generator) DecodeState(d *snapshot.Decoder, col *attr.Collector) {
	d.Tag('T')
	g.DecodeIssuerState(d, col, len(g.agents))
	g.rng.SetState(d.U())
	if d.Err() != nil {
		return
	}
	for i, a := range g.agents {
		a.phase = d.Int(0, len(a.cfg.Phases), "iptg %q agent %d phase", g.cfg.Name, i)
		a.inPhase = d.I()
		a.gapLeft = d.I()
		a.cursor = d.U()
		a.msgLeft = int(d.I())
		a.msgSeq = d.U()
	}
	g.rr = d.Int(0, len(g.agents)-1, "iptg %q round-robin pointer", g.cfg.Name)
}
