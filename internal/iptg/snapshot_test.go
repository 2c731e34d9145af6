package iptg

import (
	"errors"
	"testing"

	"mpsocsim/internal/snapshot"
)

// TestDecodeStateRejectsOutOfRange corrupts each index the generator acts on
// after a restore — the round-robin pointer over agents and an agent's
// phase — and requires DecodeState to reject the snapshot instead of
// letting Run index with it.
func TestDecodeStateRejectsOutOfRange(t *testing.T) {
	cfg := Config{
		Name: "ip0",
		Agents: []AgentConfig{
			{Name: "a", Phases: append(onePhase(20, 2, 4, 8, 0.5), onePhase(20, 1, 1, 4, 0.5)...)},
			{Name: "b", Phases: onePhase(20, 3, 2, 4, 0.5)},
		},
		Seed: 1,
	}
	build := func() *Generator { return newRig(t, cfg).g }
	rows := []struct {
		name string
		set  func(g *Generator)
	}{
		{"rr negative", func(g *Generator) { g.rr = -1 }},
		{"rr past agents", func(g *Generator) { g.rr = len(g.agents) }},
		{"phase negative", func(g *Generator) { g.agents[1].phase = -1 }},
		{"phase past phases", func(g *Generator) { g.agents[0].phase = 3 }},
	}
	decode := func(g *Generator) error {
		e := snapshot.NewEncoder()
		g.EncodeState(e)
		d, err := snapshot.NewDecoder(e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		build().DecodeState(d, nil)
		return d.Finish()
	}
	g := build()
	g.agents[0].phase = 2 // every phase done is in range
	if err := decode(g); err != nil {
		t.Fatalf("a generator does not round-trip: %v", err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			g := build()
			row.set(g)
			if err := decode(g); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("decode returned %v, want %v", err, snapshot.ErrCorrupt)
			}
		})
	}
}
