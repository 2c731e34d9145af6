package platform

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"mpsocsim/internal/stbus"
)

// Key is one row of the platform's text form: a Spec knob's name, the
// values it accepts and what it sets. The [platform] section of a spec file
// (ParseSpec) and mpsocsim's -set key=value pairs both go through SetKey,
// so they accept the same keys and report the same errors.
type Key struct {
	Name, Values, Doc string
	set               func(s *Spec, v string) bool
}

var keys = []Key{
	enumKey("protocol", "communication protocol (default stbus)", func(s *Spec) *Protocol { return &s.Protocol }, "stbus", "ahb", "axi"),
	enumKey("topology", "interconnect topology (default distributed)", func(s *Spec) *Topology { return &s.Topology }, "distributed", "collapsed"),
	enumKey("memory", "memory subsystem (default lmi: LMI controller + DDR SDRAM)", func(s *Spec) *MemoryKind { return &s.Memory }, "onchip", "lmi"),
	intKey("waitstates", 0, math.MaxInt64, "on-chip memory wait states (default 1)", func(s *Spec) *int { return &s.OnChipWaitStates }),
	intKey("lmi.sdram.cas", 1, math.MaxInt64, "SDRAM CAS latency in memory cycles (default 3)", func(s *Spec) *int { return &s.LMI.SDRAM.Timing.TCAS }),
	intKey("stbustype", 1, 3, "protocol type of the STBus layers (default 3)", func(s *Spec) *stbus.Type { return &s.STBusType }),
	// The row rejects what normalize would turn into scale 1; check holds
	// the upper bound, as it does the io.irq.agents one.
	{"scale", "a number in (0, 1000]", "workload scale factor (default 1)", func(s *Spec, v string) bool {
		f, err := strconv.ParseFloat(v, 64)
		s.WorkloadScale = f
		return err == nil && f > 0
	}},
	{"seed", "an unsigned integer", "traffic generator seed (default 1)", func(s *Spec, v string) bool {
		n, err := strconv.ParseUint(v, 0, 64)
		s.Seed = n
		return err == nil
	}},
	boolKey("twophase", "two-regime workload, the Fig.6 profile (default false)", func(s *Spec) *bool { return &s.TwoPhase }),
	boolKey("splitlmi", "split-capable LMI conversion bridge (default false)", func(s *Spec) *bool { return &s.SplitLMIBridge }),
	boolKey("dsp", "include the ST220 core (default true)", func(s *Spec) *bool { return &s.WithDSP }),
	{"messaging", "a boolean", "message-granularity arbitration in STBus nodes (default true)", func(s *Spec, v string) bool {
		b, ok := parseBool(v)
		s.NoMessageArbitration = !b
		return ok
	}},
	boolKey("io", "attach the I/O subsystem: DMA engine, IRQ device agents, heap allocator (default false); the io.* keys shape it", func(s *Spec) *bool { return &s.IO.Enable }),
	intKey("io.dma.descriptors", math.MinInt64, math.MaxInt64, "DMA descriptor-chain length (0 = default 48 × scale, negative disables the engine)", func(s *Spec) *int { return &s.IO.DMADescriptors }),
	intKey("io.dma.burst", 0, math.MaxInt64, "DMA burst length in beats (0 = default 16)", func(s *Spec) *int { return &s.IO.DMABurstBeats }),
	intKey("io.irq.agents", math.MinInt64, math.MaxInt64, "IRQ device agents (0 = default 2, negative disables them), at most 64", func(s *Spec) *int { return &s.IO.IRQAgents }),
	intKey("io.irq.period", 0, math.MaxInt64, "device event period in I/O cycles (0 = default 400)", func(s *Spec) *int64 { return &s.IO.IRQPeriodCycles }),
	intKey("io.irq.deadline", 0, math.MaxInt64, "per-event service deadline in I/O cycles (0 = default 256)", func(s *Spec) *int64 { return &s.IO.IRQDeadlineCycles }),
	intKey("io.irq.events", 0, math.MaxInt64, "events per IRQ agent (0 = default 48 × scale); agents × events × scale at most 3072000", func(s *Spec) *int { return &s.IO.IRQEvents }),
	intKey("io.alloc.ops", math.MinInt64, math.MaxInt64, "heap-allocator operations (0 = default 240 × scale, negative disables it)", func(s *Spec) *int { return &s.IO.AllocOps }),
}

// Keys returns the rows of the text form, in the order -h lists them.
func Keys() []Key { return slices.Clone(keys) }

// SetKey parses val as the value of the named key and sets it in s, which
// it leaves unchanged on an error.
func SetKey(s *Spec, key, val string) error {
	i := slices.IndexFunc(keys, func(k Key) bool { return k.Name == key })
	if i < 0 {
		return fmt.Errorf("unknown platform key %q", key)
	}
	c := *s
	if k := keys[i]; !k.set(&c, val) {
		return fmt.Errorf("%s wants %s, got %q", k.Name, k.Values, val)
	}
	*s = c
	return nil
}

// ParseSpec reads a platform spec file: a [platform] section of
// key = value lines, one per row of Keys, where '#' and ';' start
// comments:
//
//	[platform]
//	protocol  = ahb      # stbus | ahb | axi
//	memory    = onchip
//	scale     = 0.5
//
// Keys the file does not set keep their DefaultSpec values. A spec it
// returns without error passes Build's checks.
func ParseSpec(r io.Reader) (Spec, error) {
	spec := DefaultSpec()
	sc := bufio.NewScanner(r)
	inSection := false
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "["):
			if line != "[platform]" {
				return spec, fmt.Errorf("line %d: unknown section %q (only [platform] is valid here)", lineNo, line)
			}
			inSection = true
		case !inSection:
			return spec, fmt.Errorf("line %d: key outside [platform] section", lineNo)
		default:
			key, val, ok := strings.Cut(line, "=")
			if !ok {
				return spec, fmt.Errorf("line %d: expected key = value", lineNo)
			}
			if err := SetKey(&spec, strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
				return spec, fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return spec, err
	}
	if !inSection {
		return spec, errors.New("no [platform] section found")
	}
	return spec, spec.check()
}

// Bounds of the knobs that size what Build preallocates. Each IRQ agent's
// event ring holds its event count times the workload scale; the bound on
// all agents' events together is the default 48 per agent for 64 agents at
// the largest scale, about 25 MB of rings.
const (
	scaleLimit    = 1000
	irqAgentLimit = 64
	irqEventLimit = 48 * irqAgentLimit * scaleLimit
)

// check rejects the specs Build cannot assemble: an enum outside its
// range, extra on-chip memories beside the LMI, and any sizing knob past
// its bound. Build runs it first, on the spec as its caller gave it.
func (s *Spec) check() error {
	ws := s.WorkloadScale
	if ws <= 0 {
		ws = 1 // as normalize sets it
	}
	agents := s.IO.effective(ws).irqAgents
	switch {
	case s.Protocol < STBus || s.Protocol > AXI:
		return fmt.Errorf("platform: unknown protocol %d", s.Protocol)
	case s.Topology < Distributed || s.Topology > Collapsed:
		return fmt.Errorf("platform: unknown topology %d", s.Topology)
	case s.OnChipMemories < 0 || s.OnChipMemories > 1 && s.Memory != OnChip:
		return fmt.Errorf("platform: %d on-chip memories with the %s memory subsystem", s.OnChipMemories, s.Memory)
	case !(s.WorkloadScale <= scaleLimit):
		return fmt.Errorf("platform: scale wants a finite number up to %d, got %v", scaleLimit, s.WorkloadScale)
	case s.IO.IRQAgents > irqAgentLimit:
		return fmt.Errorf("platform: io.irq.agents wants at most %d, got %d", irqAgentLimit, s.IO.IRQAgents)
	case float64(agents)*float64(s.IO.IRQEvents)*ws > irqEventLimit:
		return fmt.Errorf("platform: io.irq.agents × io.irq.events × scale wants at most %d, got %d × %d × %v",
			irqEventLimit, agents, s.IO.IRQEvents, ws)
	}
	return nil
}

// enumKey is the row of a knob whose values are names, the i-th of which
// sets T(i).
func enumKey[T ~int](name, doc string, at func(*Spec) *T, names ...string) Key {
	return Key{name, strings.Join(names, "|"), doc, func(s *Spec, v string) bool {
		i := slices.Index(names, v)
		*at(s) = T(i)
		return i >= 0
	}}
}

// intKey is the row of an integer knob in [lo, hi].
func intKey[T ~int | ~int64](name string, lo, hi int64, doc string, at func(*Spec) *T) Key {
	values := "an integer"
	switch {
	case hi < math.MaxInt64:
		values = fmt.Sprintf("%d..%d", lo, hi)
	case lo > math.MinInt64:
		values = fmt.Sprintf("an integer >= %d", lo)
	}
	return Key{name, values, doc, func(s *Spec, v string) bool {
		n, err := strconv.ParseInt(v, 10, 64)
		*at(s) = T(n)
		return err == nil && n >= lo && n <= hi && int64(T(n)) == n
	}}
}

// boolKey is the row of a boolean knob.
func boolKey(name, doc string, at func(*Spec) *bool) Key {
	return Key{name, "a boolean", doc, func(s *Spec, v string) bool {
		b, ok := parseBool(v)
		*at(s) = b
		return ok
	}}
}

func parseBool(v string) (bool, bool) {
	switch v {
	case "true", "yes", "1":
		return true, true
	case "false", "no", "0":
		return false, true
	}
	return false, false
}
