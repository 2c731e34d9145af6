// Package iptg reimplements ST's IP Traffic Generator (paper §3.1): a
// configurable block that reproduces the communication behaviour of a
// real-life IP core. An IPTG hosts a number of agents — internal
// sub-processes with their own burst statistics, buffering and pipelining
// capability — that share the IP's single bus interface. Inter-agent
// synchronization points emulate dependencies (e.g. a decoder that consumes
// what the decryptor produced), and per-agent phase lists reproduce
// application regimes of different traffic intensity, which Fig.6 of the
// paper relies on.
package iptg

import (
	"fmt"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/sim"
)

// AddrPattern selects the agent's address sequence.
type AddrPattern int

// Address patterns.
const (
	// Sequential walks the region burst by burst and wraps — DMA-style
	// traffic that row-hits aggressively in SDRAM.
	Sequential AddrPattern = iota
	// Strided jumps by Stride bytes per transaction.
	Strided
	// Random scatters uniformly over the region.
	Random
)

// String names the pattern.
func (p AddrPattern) String() string {
	switch p {
	case Sequential:
		return "seq"
	case Strided:
		return "stride"
	case Random:
		return "rand"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// Phase describes one traffic regime of an agent.
type Phase struct {
	// Count is the number of transactions issued in this phase.
	Count int64
	// GapMean is the mean idle gap (cycles) between transactions;
	// gaps are geometrically distributed (bursty).
	GapMean float64
	// BurstMin/BurstMax bound the uniformly drawn burst length in beats.
	BurstMin, BurstMax int
	// ReadFrac is the probability a transaction is a read.
	ReadFrac float64
}

// AgentConfig parameterizes one sub-process of the IP.
type AgentConfig struct {
	Name string
	// Phases in issue order; at least one is required.
	Phases []Phase
	// Outstanding is the agent's transaction pipelining capability.
	Outstanding int
	// RegionBase/RegionSize is the address window the agent touches.
	RegionBase, RegionSize uint64
	Pattern                AddrPattern
	// Stride for the Strided pattern, in bytes (defaults to burst size).
	Stride uint64
	// MsgLen groups this many consecutive transactions into one STBus
	// message (memory-controller-friendly traffic); 0 or 1 disables
	// messaging.
	MsgLen int
	// Prio is the request priority label.
	Prio int
	// PostedWrites marks writes as posted where the fabric supports it.
	PostedWrites bool
	// After names another agent of the same IPTG that must have
	// completed AfterCount transactions before this agent starts
	// (inter-agent synchronization point).
	After      string
	AfterCount int64
}

// Config parameterizes an IPTG instance.
type Config struct {
	Name   string
	Agents []AgentConfig
	// BytesPerBeat is the IP's native data width.
	BytesPerBeat int
	// PortReqDepth/PortRespDepth size the bus interface FIFOs.
	PortReqDepth  int
	PortRespDepth int
	// Seed makes the generator deterministic.
	Seed uint64
}

func (c *Config) normalize() error {
	if len(c.Agents) == 0 {
		return fmt.Errorf("iptg %q: no agents", c.Name)
	}
	if c.BytesPerBeat <= 0 {
		c.BytesPerBeat = 8
	}
	if c.PortReqDepth <= 0 {
		c.PortReqDepth = 4
	}
	if c.PortRespDepth <= 0 {
		c.PortRespDepth = 8
	}
	names := map[string]bool{}
	for i := range c.Agents {
		a := &c.Agents[i]
		if a.Name == "" {
			a.Name = fmt.Sprintf("agent%d", i)
		}
		if names[a.Name] {
			return fmt.Errorf("iptg %q: duplicate agent %q", c.Name, a.Name)
		}
		names[a.Name] = true
		if len(a.Phases) == 0 {
			return fmt.Errorf("iptg %q agent %q: no phases", c.Name, a.Name)
		}
		for j := range a.Phases {
			p := &a.Phases[j]
			if p.Count <= 0 {
				return fmt.Errorf("iptg %q agent %q phase %d: non-positive count", c.Name, a.Name, j)
			}
			if p.BurstMin <= 0 {
				p.BurstMin = 1
			}
			if p.BurstMax < p.BurstMin {
				p.BurstMax = p.BurstMin
			}
			if p.ReadFrac < 0 || p.ReadFrac > 1 {
				return fmt.Errorf("iptg %q agent %q phase %d: read fraction %v out of [0,1]", c.Name, a.Name, j, p.ReadFrac)
			}
		}
		if a.Outstanding <= 0 {
			a.Outstanding = 1
		}
		if a.RegionSize == 0 {
			a.RegionSize = 1 << 20
		}
	}
	for _, a := range c.Agents {
		if a.After != "" && !names[a.After] {
			return fmt.Errorf("iptg %q agent %q: unknown sync target %q", c.Name, a.Name, a.After)
		}
	}
	return nil
}

// agent is the runtime state of one sub-process.
type agent struct {
	cfg AgentConfig
	// total is the transaction count summed over all phases; dep is the
	// After agent (nil when unsynchronized); t is the agent's row of the
	// generator's Issuer.
	total int64
	dep   *agent
	t     *tally

	phase   int
	inPhase int64 // transactions issued in the current phase
	gapLeft int64
	cursor  uint64
	msgLeft int
	msgSeq  uint64
}

func (a *agent) done() bool { return a.t.issued >= a.total && a.t.inFlight() == 0 }

// blocked reports whether the agent cannot issue whatever its gap: it has
// finished its phases, its outstanding window is full, or its sync target
// has not completed enough transactions. Only a response (or its own
// generator issuing) can unblock it.
func (a *agent) blocked() bool {
	return a.phase >= len(a.cfg.Phases) || a.t.inFlight() >= int64(a.cfg.Outstanding) ||
		(a.dep != nil && a.dep.t.completed < a.cfg.AfterCount)
}

func (a *agent) currentPhase() *Phase {
	if a.phase >= len(a.cfg.Phases) {
		return nil
	}
	return &a.cfg.Phases[a.phase]
}

// Generator is the IPTG component: a gated sim.Clocked initiator whose
// Issuer tags each request with its agent's index.
type Generator struct {
	Issuer
	cfg Config
	rng *sim.Rand

	agents []*agent
	rr     int
}

// New builds a generator. ids must hand out request IDs no other initiator
// of the platform uses, so they stay unique across bridges; origin
// identifies this IP in end-to-end statistics.
func New(cfg Config, clk *sim.Clock, ids *bus.IDSource, origin int) (*Generator, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	g := &Generator{
		cfg: cfg,
		rng: sim.NewRand(cfg.Seed ^ 0x5eed),
	}
	names := make([]string, len(cfg.Agents))
	for i, ac := range cfg.Agents {
		names[i] = ac.Name
	}
	g.Init(bus.NewInitiatorPort(cfg.Name, cfg.PortReqDepth, cfg.PortRespDepth), clk, ids, origin, names, nil)
	byName := map[string]*agent{}
	for i, ac := range cfg.Agents {
		a := &agent{cfg: ac, cursor: ac.RegionBase, t: &g.tallies[i]}
		for _, p := range ac.Phases {
			a.total += p.Count
		}
		g.agents = append(g.agents, a)
		byName[ac.Name] = a
	}
	for _, a := range g.agents {
		a.dep = byName[a.cfg.After]
	}
	return g, nil
}

// MustNew is New that panics on config errors, for static platform tables.
func MustNew(cfg Config, clk *sim.Clock, ids *bus.IDSource, origin int) *Generator {
	g, err := New(cfg, clk, ids, origin)
	if err != nil {
		panic(err)
	}
	return g
}

// Done reports whether every agent has issued and completed its workload.
func (g *Generator) Done() bool {
	for _, a := range g.agents {
		if !a.done() {
			return false
		}
	}
	return true
}

// Eval collects responses and issues at most one new transaction per cycle.
func (g *Generator) Eval() {
	g.Collect()
	g.tickGaps()
	g.issue()
}

// Update commits the port FIFOs and sleeps when the next Evals would only
// count down gaps: until a response arrives, until the request FIFO, when
// full, gives up an entry, or until the shortest gap of an agent free to
// issue runs out.
func (g *Generator) Update() {
	g.port.Update()
	if g.port.Resp.Len() != 0 {
		return // collects at the next edge
	}
	if !g.port.Req.CanPush() {
		g.act.Sleep()
		return
	}
	gap := int64(-1)
	for _, a := range g.agents {
		if a.blocked() {
			continue
		}
		if a.gapLeft <= 1 {
			return // issues at the next edge
		}
		if gap < 0 || a.gapLeft < gap {
			gap = a.gapLeft
		}
	}
	if gap < 0 {
		g.act.Sleep()
		return
	}
	g.act.SleepUntil(g.clk.Cycles() + gap)
}

// CreditIdle books n skipped idle edges: the gap countdowns.
func (g *Generator) CreditIdle(n int64) {
	for _, a := range g.agents {
		a.gapLeft -= min(a.gapLeft, n)
	}
}

func (g *Generator) tickGaps() {
	for _, a := range g.agents {
		if a.gapLeft > 0 {
			a.gapLeft--
		}
	}
}

// ready reports whether the agent can issue this cycle.
func (g *Generator) ready(a *agent) bool { return a.gapLeft == 0 && !a.blocked() }

func (g *Generator) issue() {
	if !g.port.Req.CanPush() {
		return
	}
	n := len(g.agents)
	for k := 0; k < n; k++ {
		i := (g.rr + k) % n
		a := g.agents[i]
		if !g.ready(a) {
			continue
		}
		g.rr = (i + 1) % n
		g.issueFrom(i, a)
		return
	}
}

func (g *Generator) issueFrom(i int, a *agent) {
	ph := a.currentPhase()
	beats := g.rng.Range(ph.BurstMin, ph.BurstMax)
	isRead := g.rng.Bool(ph.ReadFrac)
	r := bus.Request{
		Addr:         g.nextAddr(a, beats),
		Beats:        beats,
		BytesPerBeat: g.cfg.BytesPerBeat,
		Prio:         a.cfg.Prio,
		MsgEnd:       true,
	}
	if !isRead {
		r.Op = bus.OpWrite
		r.Posted = a.cfg.PostedWrites
	}
	if a.cfg.MsgLen > 1 {
		if a.msgLeft == 0 {
			a.msgLeft = a.cfg.MsgLen
			a.msgSeq++
		}
		r.MsgSeq = uint64(g.origin)<<32 | a.msgSeq
		a.msgLeft--
		r.MsgEnd = a.msgLeft == 0
	}
	g.Issue(i, r, true)
	a.inPhase++
	a.gapLeft = int64(g.rng.Geometric(ph.GapMean))
	if a.inPhase >= ph.Count {
		a.phase++
		a.inPhase = 0
	}
}

func (g *Generator) nextAddr(a *agent, beats int) uint64 {
	size := a.cfg.RegionSize
	burstBytes := uint64(beats * g.cfg.BytesPerBeat)
	var addr uint64
	switch a.cfg.Pattern {
	case Sequential:
		addr = a.cursor
		a.cursor += burstBytes
		if a.cursor >= a.cfg.RegionBase+size {
			a.cursor = a.cfg.RegionBase
		}
	case Strided:
		addr = a.cursor
		stride := a.cfg.Stride
		if stride == 0 {
			stride = burstBytes
		}
		a.cursor += stride
		if a.cursor >= a.cfg.RegionBase+size {
			a.cursor = a.cfg.RegionBase + (a.cursor-a.cfg.RegionBase)%size
		}
	case Random:
		span := size / burstBytes
		if span == 0 {
			span = 1
		}
		addr = a.cfg.RegionBase + (uint64(g.rng.Intn(int(span))))*burstBytes
	}
	return addr
}

// Stats returns per-agent statistics, in configuration order.
func (g *Generator) Stats() []AgentStats {
	out := g.Issuer.Stats()
	for i, a := range g.agents {
		out[i].CurrentPhase = a.phase
	}
	return out
}
