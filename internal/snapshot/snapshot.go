// Package snapshot provides the versioned binary codec under the platform
// checkpoint/restore facility (DESIGN.md §16). It carries the low-level
// encode/decode machinery only; each stateful subsystem package contributes
// its own section codec on top of the Encoder/Decoder pair, and
// platform.Snapshot / platform.Restore walk the subsystems in one fixed
// deterministic order.
//
// Format discipline follows internal/tracecap: a fixed magic, a version
// byte rejected on mismatch, unsigned varints for counts and plain values,
// zigzag varints for signed values, length-prefixed strings, and sentinel
// errors (ErrMagic, ErrVersion, ErrTruncated, ErrCorrupt) wrapped with the
// byte offset of the failing field so corrupt checkpoints fail loudly and
// precisely.
//
// The Decoder is sticky-error: after the first failure every read returns a
// zero value and the error is reported by Err (and by the platform entry
// points). Section tags — one byte asserted on decode — bound how far a
// traversal mismatch can drift before it is caught.
package snapshot

import (
	"errors"
	"fmt"

	"mpsocsim/internal/varint"
)

// Magic identifies a snapshot file.
const Magic = "MPSNAP"

// Version is the current snapshot format version. Bumped on any
// incompatible layout change; the decoder rejects unknown versions rather
// than guessing (same rule as the trace format). Version 2 dropped the FIFO
// occupancy statistics from every FIFO section; version 3 gave the five
// traffic-source sections (iptg, replay, DMA, IRQ, heap allocator) one
// shared issue-side layout (iptg.Issuer); version 4 added the issue cycle
// of each in-flight request and the last issue and completion cycles to
// that layout, the watchdog's counter baselines to the run-loop state, and
// dropped the timeline samplers' self-clocked counters; version 5 gave the
// DSP core's section the same issue-side layout in place of its port state
// and its refill ID and wait flag; version 6 dropped the timeline samplers:
// the header's timeline flag, cadence, capacity and countdown and the
// sampler sections.
const Version = 6

// Sentinel decode errors; match with errors.Is.
var (
	// ErrMagic marks a file that is not a snapshot at all.
	ErrMagic = errors.New("bad magic (not a platform snapshot)")
	// ErrVersion marks a snapshot written by an incompatible format version.
	ErrVersion = errors.New("unsupported snapshot version")
	// ErrTruncated marks a snapshot that ends mid-structure.
	ErrTruncated = errors.New("truncated snapshot")
	// ErrCorrupt marks a structurally invalid snapshot (overlong varint,
	// out-of-range count, section tag mismatch, dangling object reference).
	ErrCorrupt = errors.New("corrupt snapshot")
)

// Encoder accumulates the snapshot byte stream. The zero value is not
// usable; call NewEncoder.
type Encoder struct {
	buf []byte
	// refs assigns a dense index to every shared object (requests,
	// attribution records, bridge contexts) on first encounter, so object
	// graphs serialize as one body plus references. Keys are pointers;
	// encode and decode must visit objects in the same traversal order.
	refs map[any]uint64
}

// NewEncoder returns an encoder with the header (magic + version) written.
func NewEncoder() *Encoder {
	e := &Encoder{buf: make([]byte, 0, 1<<16), refs: make(map[any]uint64, 256)}
	e.buf = append(e.buf, Magic...)
	e.buf = append(e.buf, Version)
	return e
}

// Bytes returns the encoded stream.
func (e *Encoder) Bytes() []byte { return e.buf }

// Tag writes a one-byte section marker; the decoder asserts it.
func (e *Encoder) Tag(id byte) { e.buf = append(e.buf, id) }

// U writes an unsigned varint.
func (e *Encoder) U(v uint64) { e.buf = varint.AppendUvarint(e.buf, v) }

// I writes a zigzag-encoded signed varint.
func (e *Encoder) I(v int64) { e.buf = varint.AppendVarint(e.buf, v) }

// Bool writes a boolean as one varint.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U(1)
	} else {
		e.U(0)
	}
}

// Str writes a length-prefixed string.
func (e *Encoder) Str(s string) { e.buf = varint.AppendString(e.buf, s) }

// Ref assigns (or looks up) the dense index of a shared object. The second
// result is true exactly on the first encounter, when the caller must encode
// the object body.
func (e *Encoder) Ref(obj any) (uint64, bool) {
	if idx, ok := e.refs[obj]; ok {
		return idx, false
	}
	idx := uint64(len(e.refs))
	e.refs[obj] = idx
	return idx, true
}

// Decoder walks a snapshot byte stream. Errors are sticky: after the first
// failure all reads return zero values and Err reports the failure.
type Decoder struct {
	data []byte
	off  int
	err  error
	// objs holds decoded shared objects by dense index, mirroring the
	// Encoder's first-encounter numbering.
	objs []any
}

// maxRefs bounds the shared-object table so a corrupt count cannot drive a
// huge allocation; it is far above any real platform's in-flight graph.
const maxRefs = 1 << 22

// NewDecoder validates the header and positions the decoder after it.
func NewDecoder(data []byte) (*Decoder, error) {
	d := &Decoder{data: data}
	if len(data) < len(Magic)+1 {
		return nil, d.fail(ErrTruncated, 0, "header needs %d bytes, have %d", len(Magic)+1, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, d.fail(ErrMagic, 0, "got %q", data[:len(Magic)])
	}
	d.off = len(Magic)
	if v := data[d.off]; v != Version {
		return nil, d.fail(ErrVersion, d.off, "version %d (decoder supports %d)", v, Version)
	}
	d.off++
	return d, nil
}

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of undecoded bytes (0 after an error).
func (d *Decoder) Remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.data) - d.off
}

// fail records (and returns) the sticky error with positional context.
func (d *Decoder) fail(err error, at int, format string, args ...any) error {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: %s at offset %d: %w", fmt.Sprintf(format, args...), at, err)
	}
	return d.err
}

// Corrupt lets a section codec reject a semantically invalid value (e.g. a
// FIFO occupancy above its depth) with the standard error shape.
func (d *Decoder) Corrupt(format string, args ...any) {
	d.fail(ErrCorrupt, d.off, format, args...)
}

// Tag asserts a one-byte section marker.
func (d *Decoder) Tag(id byte) {
	if d.err != nil {
		return
	}
	at := d.off
	if d.off >= len(d.data) {
		d.fail(ErrTruncated, at, "section tag %#x missing", id)
		return
	}
	if got := d.data[d.off]; got != id {
		d.fail(ErrCorrupt, at, "section tag mismatch: want %#x, got %#x", id, got)
		return
	}
	d.off++
}

// U reads an unsigned varint.
func (d *Decoder) U() uint64 {
	if d.err != nil {
		return 0
	}
	at := d.off
	v, n, st := varint.Uvarint(d.data, d.off)
	switch st {
	case varint.Truncated:
		d.fail(ErrTruncated, at, "value ends mid-varint")
		return 0
	case varint.Overflow:
		d.fail(ErrCorrupt, at, "varint overflows 64 bits")
		return 0
	}
	d.off += n
	return v
}

// I reads a zigzag-encoded signed varint.
func (d *Decoder) I() int64 {
	if d.err != nil {
		return 0
	}
	at := d.off
	v, n, st := varint.Varint(d.data, d.off)
	switch st {
	case varint.Truncated:
		d.fail(ErrTruncated, at, "value ends mid-varint")
		return 0
	case varint.Overflow:
		d.fail(ErrCorrupt, at, "varint overflows 64 bits")
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed varint that must lie in [lo, hi] — an index, a
// round-robin pointer or a bounded count the restored component will act
// on — and rejects any other value as corrupt, naming the field by format
// and args.
func (d *Decoder) Int(lo, hi int, format string, args ...any) int {
	at := d.off
	v := d.I()
	if d.err != nil {
		return 0
	}
	if v < int64(lo) || v > int64(hi) {
		d.fail(ErrCorrupt, at, "%s %d out of range [%d, %d]", fmt.Sprintf(format, args...), v, lo, hi)
		return 0
	}
	return int(v)
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool {
	at := d.off
	switch d.U() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(ErrCorrupt, at, "boolean out of range")
		return false
	}
}

// N reads a count and rejects values above max, bounding every decode-side
// allocation and loop.
func (d *Decoder) N(max int) int {
	at := d.off
	v := d.U()
	if d.err != nil {
		return 0
	}
	if v > uint64(max) {
		d.fail(ErrCorrupt, at, "count %d exceeds bound %d", v, max)
		return 0
	}
	return int(v)
}

// maxStrLen bounds decoded string lengths (names only; matches tracecap).
const maxStrLen = 1 << 12

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	at := d.off
	n := d.N(maxStrLen)
	if d.err != nil {
		return ""
	}
	if len(d.data)-d.off < n {
		d.fail(ErrTruncated, at, "string needs %d bytes, %d left", n, len(d.data)-d.off)
		return ""
	}
	s := string(d.data[d.off : d.off+n])
	d.off += n
	return s
}

// AddRef appends a decoded shared object, assigning it the next dense
// index (mirroring Encoder.Ref's first-encounter numbering).
func (d *Decoder) AddRef(obj any) {
	if len(d.objs) >= maxRefs {
		d.Corrupt("shared-object table exceeds bound %d", maxRefs)
		return
	}
	d.objs = append(d.objs, obj)
}

// Ref resolves a dense index to the decoded object.
func (d *Decoder) Ref(idx uint64) any {
	if d.err != nil {
		return nil
	}
	if idx >= uint64(len(d.objs)) {
		d.fail(ErrCorrupt, d.off, "dangling object reference %d (table holds %d)", idx, len(d.objs))
		return nil
	}
	return d.objs[idx]
}

// Finish asserts that the stream was fully consumed.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if rem := len(d.data) - d.off; rem != 0 {
		return d.fail(ErrCorrupt, d.off, "%d trailing bytes after final section", rem)
	}
	return nil
}
