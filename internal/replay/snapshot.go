package replay

import (
	"mpsocsim/internal/attr"
	"mpsocsim/internal/snapshot"
)

// EncodeState serializes the replayer's mutable state (DESIGN.md §16): the
// issue side and the stream cursor. The recorded events themselves are
// spec-derived (the trace travels with the spec, not the snapshot).
func (in *Initiator) EncodeState(e *snapshot.Encoder) {
	e.Tag('Y')
	in.EncodeIssuerState(e)
	e.I(int64(in.next))
}

// DecodeState restores a replayer serialized by EncodeState.
func (in *Initiator) DecodeState(d *snapshot.Decoder, col *attr.Collector) {
	d.Tag('Y')
	in.DecodeIssuerState(d, col, 1)
	in.next = d.Int(0, len(in.events), "replay %q cursor", in.Name())
}
