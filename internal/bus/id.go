package bus

// IDSource hands out request IDs unique within one initiator's range. IDs
// start above the base so the zero value of Request.ID means "unassigned".
//
// Request IDs are pure correlation handles: every consumer in the codebase
// compares them for equality only (response matching, probe bookkeeping),
// never for order or density, and no ID ever reaches a result, report or
// captured trace. The platform builder therefore gives each initiator its
// own source seeded into a disjoint range — IDs stay globally unique with no
// cross-initiator coordination. The ranges are part of every initiator's
// snapshot state, so merging them into one source would change snapshot
// bytes.
type IDSource struct {
	next uint64
}

// NewIDSource returns a source whose first Next is base+1. Callers that need
// disjoint ranges (one source per initiator) space their bases far wider
// than any run's transaction count.
func NewIDSource(base uint64) IDSource { return IDSource{next: base} }

// Next returns a fresh request ID.
func (s *IDSource) Next() uint64 {
	s.next++
	return s.next
}
