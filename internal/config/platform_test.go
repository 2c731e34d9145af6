package config

import (
	"strings"
	"testing"

	"mpsocsim/internal/platform"
	"mpsocsim/internal/stbus"
)

// The [platform] spec files of mpsocsim -config and -bisect are read by
// platform.ParseSpec, through the key table in internal/platform; these
// tests hold that file syntax beside the IPTG syntax tests of this package.
func parsePlatform(text string) (platform.Spec, error) {
	return platform.ParseSpec(strings.NewReader(text))
}

func TestParsePlatform(t *testing.T) {
	spec, err := parsePlatform(`
# comment
[platform]
protocol   = ahb
topology   = collapsed
memory     = onchip
waitstates = 4
stbustype  = 2
scale      = 0.5
seed       = 42
twophase   = yes
splitlmi   = true
dsp        = false
messaging  = no
`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Protocol != platform.AHB || spec.Topology != platform.Collapsed || spec.Memory != platform.OnChip {
		t.Fatalf("spec: %+v", spec)
	}
	if spec.OnChipWaitStates != 4 || spec.STBusType != stbus.Type2 {
		t.Fatalf("spec: %+v", spec)
	}
	if spec.WorkloadScale != 0.5 || spec.Seed != 42 {
		t.Fatalf("spec: %+v", spec)
	}
	if !spec.TwoPhase || !spec.SplitLMIBridge || spec.WithDSP || !spec.NoMessageArbitration {
		t.Fatalf("spec flags: %+v", spec)
	}
}

func TestParsePlatformDefaults(t *testing.T) {
	spec, err := parsePlatform("[platform]\n")
	if err != nil {
		t.Fatal(err)
	}
	def := platform.DefaultSpec()
	if spec.Protocol != def.Protocol || spec.Memory != def.Memory {
		t.Fatalf("defaults not preserved: %+v", spec)
	}
}

func TestParsePlatformBuilds(t *testing.T) {
	spec, err := parsePlatform("[platform]\nprotocol = axi\nscale = 0.05\n")
	if err != nil {
		t.Fatal(err)
	}
	p, err := platform.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Run(2e11)
	if !r.Done {
		t.Fatal("parsed platform did not drain")
	}
}

func TestParsePlatformErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{"no-section", "protocol = stbus", "outside"},
		{"missing-section", "# nothing", "no [platform] section"},
		{"wrong-section", "[chip]", "unknown section"},
		{"bad-kv", "[platform]\nprotocol stbus", "key = value"},
		{"bad-protocol", "[platform]\nprotocol = pci", "protocol wants stbus|ahb|axi"},
		{"bad-topology", "[platform]\ntopology = ring", "topology wants distributed|collapsed"},
		{"bad-memory", "[platform]\nmemory = sram", "memory wants onchip|lmi"},
		{"bad-waits", "[platform]\nwaitstates = -1", "waitstates"},
		{"bad-type", "[platform]\nstbustype = 5", "stbustype"},
		{"bad-scale", "[platform]\nscale = 0", "scale"},
		{"nan-scale", "[platform]\nscale = NaN", "scale"},
		{"inf-scale", "[platform]\nscale = +Inf", "scale"},
		{"huge-scale", "[platform]\nscale = 1e9", "scale"},
		{"many-irq-agents", "[platform]\nio.irq.agents = 1000000", "io.irq.agents"},
		{"bad-seed", "[platform]\nseed = x", "seed"},
		{"bad-bool", "[platform]\ndsp = maybe", "boolean"},
		{"unknown-key", "[platform]\ncolor = blue", "unknown platform key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parsePlatform(tc.text)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v should contain %q", err, tc.want)
			}
		})
	}
}
