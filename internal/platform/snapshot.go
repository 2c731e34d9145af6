package platform

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"mpsocsim/internal/ahb"
	"mpsocsim/internal/attr"
	"mpsocsim/internal/axi"
	"mpsocsim/internal/bridge"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/snapshot"
	"mpsocsim/internal/stbus"
	"mpsocsim/internal/tracecap"
)

// Platform checkpoint/restore (DESIGN.md §16).
//
// Snapshot serializes the full mutable state of a serial platform at an edge
// boundary; Restore rebuilds the topology from the spec (Build is
// deterministic) and overwrites the mutable state in the same fixed
// traversal order. Restore-then-run is bit-identical to the uninterrupted
// run: reports, traces and attribution matrices match byte for byte.

// stateEncoder/stateDecoder are the per-subsystem section-codec surfaces.
// Every stateful component implements them; the traversal below visits the
// components in one fixed order on both sides, which is what keeps the
// shared-object reference tables (requests, attribution records, bridge
// contexts) aligned.
type stateEncoder interface {
	EncodeState(*snapshot.Encoder)
}

type stateDecoder interface {
	DecodeState(*snapshot.Decoder, *attr.Collector)
}

// Fingerprint returns a stable hash of the spec: the snapshot header carries
// it so a checkpoint cannot be restored onto a differently-configured
// platform (whose topology traversal would misinterpret the byte stream).
// The replay trace — an input, not a knob — contributes its identity (name,
// streams, event count), not its events.
func (s Spec) Fingerprint() uint64 {
	h := fnv.New64a()
	replay := s.Replay
	flat := s
	flat.Replay = nil
	fmt.Fprintf(h, "%#v", flat)
	if replay != nil {
		fmt.Fprintf(h, "|replay:%s:%v:%d", replay.Platform, replay.StreamNames(), replay.Events())
	}
	return h.Sum64()
}

// Snapshot writes a checkpoint of the platform's complete mutable state.
// Call it only between steps (after Build, or when Run/RunToCycle has
// returned) — that is an edge boundary, where every two-phase FIFO is
// quiescent.
func (p *Platform) Snapshot(w io.Writer) error {
	p.Kernel.Settle()
	e := snapshot.NewEncoder()
	e.Tag('W')
	e.U(p.Spec.Fingerprint())

	// Feature flags: which post-Build enables were applied, with their
	// parameters, so Restore re-applies them before decoding state.
	e.Bool(p.attrCol != nil)
	e.I(int64(p.attrRetain))
	e.Bool(p.capture != nil)
	if p.capture != nil {
		e.I(int64(p.capture.Limit()))
	} else {
		e.I(0)
	}

	// Run-loop state: watchdog history with its counter baselines (values
	// in registry order).
	e.I(p.wdLastProg)
	e.I(p.wdLastCheck)
	e.I(p.wdObservations)
	e.I(p.wdObservedCycle)
	for _, base := range [][]metrics.CounterValue{p.wdCounters, p.wdPrevCounters} {
		e.U(uint64(len(base)))
		for _, c := range base {
			e.I(c.Value)
		}
	}

	p.encodeComponents(e)
	_, err := w.Write(e.Bytes())
	return err
}

// encodeComponents walks every stateful subsystem in the fixed traversal
// order (mirrored exactly by decodeComponents): kernel time axis, request
// pool, fabrics in build order, bridges by sorted name, memory subsystem,
// DSP core, initiators in attachment order, ID sources, then the
// attribution collector and trace capture when enabled.
func (p *Platform) encodeComponents(e *snapshot.Encoder) {
	p.Kernel.EncodeState(e)
	p.pool.EncodeState(e)
	for _, fe := range p.fabrics {
		fe.fab.(stateEncoder).EncodeState(e)
	}
	for _, name := range sortedBridgeNames(p.bridges) {
		p.bridges[name].EncodeState(e)
	}
	for _, m := range p.onchip {
		m.EncodeState(e)
	}
	if p.ctrl != nil {
		p.ctrl.EncodeState(e)
	}
	if p.core != nil {
		p.core.EncodeState(e)
	}
	for _, g := range p.gens {
		g.(stateEncoder).EncodeState(e)
	}
	e.U(uint64(len(p.idSrcs)))
	for _, src := range p.idSrcs {
		e.U(src.State())
	}
	if p.attrCol != nil {
		p.attrCol.EncodeState(e)
	}
	if p.capture != nil {
		p.capture.EncodeState(e)
	}
}

// Restore rebuilds a platform from the spec and overwrites its mutable state
// from a checkpoint written by Snapshot. The spec must be the one the
// checkpoint was taken from (the header fingerprint enforces it). The
// returned platform is paused at the checkpoint instant: continue with Run
// and the results are bit-identical to a run that never checkpointed.
func Restore(spec Spec, r io.Reader) (*Platform, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("platform: reading snapshot: %w", err)
	}
	d, err := snapshot.NewDecoder(data)
	if err != nil {
		return nil, err
	}
	p, err := Build(spec)
	if err != nil {
		return nil, err
	}
	d.Tag('W')
	fp := d.U()
	if err := d.Err(); err != nil {
		return nil, err
	}
	// Snapshot fingerprints the spec as Build normalized it, so compare
	// with the rebuilt platform's, not the caller's raw spec.
	if want := p.Spec.Fingerprint(); fp != want {
		return nil, fmt.Errorf("platform: snapshot was taken from a different spec (fingerprint %#x, this spec is %#x)", fp, want)
	}

	attrOn := d.Bool()
	attrRetain := d.I()
	capOn := d.Bool()
	capLimit := d.I()
	// The attribution retention sizes a preallocated buffer, so a corrupt
	// stream must not reach EnableAttribution with an absurd value — the
	// decoder's count bound does not cover these signed fields. The capture
	// limit drives no allocation and only needs a sanity ceiling.
	const maxObsBuf, maxObsVal = 1 << 16, 1 << 40
	if attrRetain < 0 || attrRetain > maxObsBuf {
		d.Corrupt("observability buffer size %d out of range [0, %d]", attrRetain, int64(maxObsBuf))
	}
	if capLimit < 0 || capLimit > maxObsVal {
		d.Corrupt("observability parameter %d out of range [0, %d]", capLimit, int64(maxObsVal))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if attrOn {
		p.EnableAttribution(int(attrRetain))
	}
	if capOn {
		p.AttachCapture(tracecap.NewCapture(spec.Name(), int(capLimit)))
	}

	p.wdLastProg = d.I()
	p.wdLastCheck = d.I()
	p.wdObservations = int64(d.Int(0, math.MaxInt, "watchdog observation count"))
	p.wdObservedCycle = int64(d.Int(0, math.MaxInt, "watchdog observation cycle"))
	p.decodeBaseline(d, p.wdCounters)
	p.decodeBaseline(d, p.wdPrevCounters)

	p.decodeComponents(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	p.resumedCycles = p.CentralClk.Cycles()
	return p, nil
}

// decodeBaseline restores one watchdog counter baseline into dst: a value
// per registry counter, named from the registry. A baseline of any other
// length comes from a different registry and is refused.
func (p *Platform) decodeBaseline(d *snapshot.Decoder, dst []metrics.CounterValue) {
	ctrs := p.Metrics.Counters()
	if n := d.N(1 << 20); d.Err() == nil && n != len(ctrs) {
		d.Corrupt("watchdog baseline of %d counters, the registry has %d", n, len(ctrs))
	}
	if d.Err() != nil {
		return
	}
	for i, c := range ctrs {
		dst[i] = metrics.CounterValue{Name: c.Name(), Value: d.I()}
	}
}

// ResumedCycles returns the central-clock cycle the platform was restored
// at (0 for a fresh Build).
func (p *Platform) ResumedCycles() int64 { return p.resumedCycles }

// decodeComponents mirrors encodeComponents exactly.
func (p *Platform) decodeComponents(d *snapshot.Decoder) {
	p.Kernel.DecodeState(d)
	p.pool.DecodeState(d)
	for _, fe := range p.fabrics {
		fe.fab.(stateDecoder).DecodeState(d, p.attrCol)
	}
	for _, name := range sortedBridgeNames(p.bridges) {
		p.bridges[name].DecodeState(d, p.attrCol)
	}
	for _, m := range p.onchip {
		m.DecodeState(d, p.attrCol)
	}
	if p.ctrl != nil {
		p.ctrl.DecodeState(d, p.attrCol)
	}
	if p.core != nil {
		p.core.DecodeState(d, p.attrCol)
	}
	for _, g := range p.gens {
		g.(stateDecoder).DecodeState(d, p.attrCol)
	}
	n := d.N(1 << 10)
	if d.Err() != nil {
		return
	}
	if n != len(p.idSrcs) {
		d.Corrupt("ID-source count %d does not match platform's %d", n, len(p.idSrcs))
		return
	}
	for _, src := range p.idSrcs {
		src.SetState(d.U())
	}
	if p.attrCol != nil {
		p.attrCol.DecodeState(d)
	}
	if p.capture != nil {
		p.capture.DecodeState(d)
	}
}

// sortedBridgeNames returns the bridge names in sorted order — the fixed
// bridge traversal order of the snapshot format (and of registerMetrics).
func sortedBridgeNames(bridges map[string]*bridge.Bridge) []string {
	names := make([]string, 0, len(bridges))
	for name := range bridges {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Compile-time interface checks: every component in the traversal speaks the
// section-codec surface.
var (
	_ stateEncoder = (*stbus.Node)(nil)
	_ stateEncoder = (*ahb.Bus)(nil)
	_ stateEncoder = (*axi.Interconnect)(nil)
	_ stateDecoder = (*stbus.Node)(nil)
	_ stateDecoder = (*ahb.Bus)(nil)
	_ stateDecoder = (*axi.Interconnect)(nil)
)
