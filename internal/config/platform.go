package config

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mpsocsim/internal/platform"
	"mpsocsim/internal/stbus"
)

// ParsePlatform reads a platform specification file:
//
//	[platform]
//	protocol  = stbus          # stbus | ahb | axi
//	topology  = distributed    # distributed | collapsed
//	memory    = lmi            # onchip | lmi
//	waitstates = 1             # on-chip memory wait states
//	lmi.sdram.cas = 3          # SDRAM CAS latency in memory cycles (>= 1)
//	stbustype = 3              # 1 | 2 | 3
//	scale     = 1.0            # workload scale, at most 1000
//	seed      = 1
//	twophase  = false
//	splitlmi  = false
//	dsp       = true
//	messaging = true
//	io        = false          # attach the I/O subsystem (DMA + IRQ agents + heap allocator)
//	io.dma.descriptors = 0     # 0 = default, negative disables the DMA engine
//	io.irq.agents      = 0     # 0 = default (2), negative disables the IRQ agents, at most 64
//	io.irq.deadline    = 0     # per-event service deadline in I/O cycles (0 = default)
//	io.alloc.ops       = 0     # 0 = default, negative disables the heap allocator
//
// Unset keys keep platform.DefaultSpec values. '#' and ';' start comments.
// The bounds on scale and io.irq.agents keep what Build preallocates (each
// IRQ agent's event ring grows with the scale) far below any host's memory.
func ParsePlatform(r io.Reader) (platform.Spec, error) {
	spec := platform.DefaultSpec()
	sc := bufio.NewScanner(r)
	lineNo := 0
	inSection := false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if line != "[platform]" {
				return spec, fmt.Errorf("line %d: unknown section %q (only [platform] is valid here)", lineNo, line)
			}
			inSection = true
			continue
		}
		if !inSection {
			return spec, fmt.Errorf("line %d: key outside [platform] section", lineNo)
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return spec, fmt.Errorf("line %d: expected key = value", lineNo)
		}
		if err := platformKey(&spec, strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
			return spec, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return spec, err
	}
	if !inSection {
		return spec, fmt.Errorf("no [platform] section found")
	}
	return spec, nil
}

// ParsePlatformString is ParsePlatform over a string.
func ParsePlatformString(s string) (platform.Spec, error) {
	return ParsePlatform(strings.NewReader(s))
}

// Upper bounds of the platform keys whose values size what Build allocates.
const (
	maxScale     = 1000
	maxIRQAgents = 64
)

func platformKey(spec *platform.Spec, key, val string) error {
	switch key {
	case "protocol":
		switch val {
		case "stbus":
			spec.Protocol = platform.STBus
		case "ahb":
			spec.Protocol = platform.AHB
		case "axi":
			spec.Protocol = platform.AXI
		default:
			return fmt.Errorf("unknown protocol %q", val)
		}
	case "topology":
		switch val {
		case "distributed":
			spec.Topology = platform.Distributed
		case "collapsed":
			spec.Topology = platform.Collapsed
		default:
			return fmt.Errorf("unknown topology %q", val)
		}
	case "memory":
		switch val {
		case "onchip":
			spec.Memory = platform.OnChip
		case "lmi":
			spec.Memory = platform.LMIDDR
		default:
			return fmt.Errorf("unknown memory kind %q", val)
		}
	case "waitstates":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("waitstates wants a non-negative integer, got %q", val)
		}
		spec.OnChipWaitStates = n
	case "lmi.sdram.cas":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return fmt.Errorf("lmi.sdram.cas wants a positive integer, got %q", val)
		}
		spec.LMI.SDRAM.Timing.TCAS = n
	case "stbustype":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 || n > 3 {
			return fmt.Errorf("stbustype wants 1..3, got %q", val)
		}
		spec.STBusType = stbus.Type(n)
	case "scale":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || !(f > 0 && f <= maxScale) {
			return fmt.Errorf("scale wants a positive number up to %d, got %q", maxScale, val)
		}
		spec.WorkloadScale = f
	case "seed":
		n, err := strconv.ParseUint(val, 0, 64)
		if err != nil {
			return fmt.Errorf("seed: %q", val)
		}
		spec.Seed = n
	case "twophase":
		b, err := parseBool(val)
		if err != nil {
			return err
		}
		spec.TwoPhase = b
	case "splitlmi":
		b, err := parseBool(val)
		if err != nil {
			return err
		}
		spec.SplitLMIBridge = b
	case "dsp":
		b, err := parseBool(val)
		if err != nil {
			return err
		}
		spec.WithDSP = b
	case "messaging":
		b, err := parseBool(val)
		if err != nil {
			return err
		}
		spec.NoMessageArbitration = !b
	case "io":
		b, err := parseBool(val)
		if err != nil {
			return err
		}
		spec.IO.Enable = b
	case "io.dma.descriptors":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("io.dma.descriptors wants an integer, got %q", val)
		}
		spec.IO.DMADescriptors = n
	case "io.irq.agents":
		n, err := strconv.Atoi(val)
		if err != nil || n > maxIRQAgents {
			return fmt.Errorf("io.irq.agents wants an integer up to %d, got %q", maxIRQAgents, val)
		}
		spec.IO.IRQAgents = n
	case "io.irq.deadline":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("io.irq.deadline wants a non-negative integer, got %q", val)
		}
		spec.IO.IRQDeadlineCycles = n
	case "io.alloc.ops":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("io.alloc.ops wants an integer, got %q", val)
		}
		spec.IO.AllocOps = n
	default:
		return fmt.Errorf("unknown platform key %q", key)
	}
	return nil
}

func parseBool(val string) (bool, error) {
	switch val {
	case "true", "yes", "1":
		return true, nil
	case "false", "no", "0":
		return false, nil
	}
	return false, fmt.Errorf("expected a boolean, got %q", val)
}
