// Package experiments holds the scale presets and the environment built
// from them: ScaleConfig names each preset's generation parameters,
// BuildWorld turns a preset into a simulated world, and NewEnv adds the
// orchestrator inputs and the measurement system on top. The daemons,
// the tenant control plane, the control API and the figure runners
// (internal/figures) all build their worlds here, so a tenant, a
// painterd instance and a figure of the same scale and seed share one
// world bit for bit.
package experiments

import (
	"fmt"
	"sort"

	"painter/internal/cloud"
	"painter/internal/core"
	"painter/internal/measurement"
	"painter/internal/netsim"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

// Scale selects the experiment environment size.
type Scale int

// Scales.
const (
	// ScaleSmall is for unit tests: seconds, not minutes.
	ScaleSmall Scale = iota
	// ScalePEERING mirrors the PEERING/Vultr prototype (§4): 25 PoPs.
	ScalePEERING
	// ScaleAzure mirrors the simulated Azure evaluation: more PoPs,
	// peerings, and UGs.
	ScaleAzure
)

// ParseScale maps a preset name (Scale.String) back to its Scale.
func ParseScale(name string) (Scale, error) {
	for s := ScaleSmall; s <= ScaleAzure; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (want small, peering, or azure)", name)
}

func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScalePEERING:
		return "peering"
	case ScaleAzure:
		return "azure"
	default:
		return "scale?"
	}
}

// Env is a fully constructed experiment environment.
type Env struct {
	Scale  Scale
	Graph  *topology.Graph
	Deploy *cloud.Deployment
	World  *netsim.World
	// UGs are the anycast-covered user groups (weights renormalized).
	UGs *usergroup.Set
	// AllUGs is the unfiltered set (needed by coverage metrics).
	AllUGs *usergroup.Set
	// Meas is the Appendix-B/C measurement system.
	Meas *measurement.System
	// Inputs are orchestrator inputs using direct (prototype-style)
	// estimates; use EstimatedInputs for Azure-style estimated inputs.
	Inputs core.Inputs
	Seed   int64
}

// ScaleConfig returns the canonical generation parameters for a scale:
// topology generator config, cloud deployment profile, and UG build
// config. Every consumer of a scale preset (BuildWorld, cmd/topogen,
// the benchmark) derives from this one function so sizes never drift.
func ScaleConfig(scale Scale, seed int64) (topology.GenConfig, cloud.Profile, usergroup.Config, error) {
	var gen topology.GenConfig
	var prof cloud.Profile
	ugCfg := usergroup.DefaultConfig()
	ugCfg.Seed = seed + 3
	switch scale {
	case ScaleSmall:
		gen = topology.GenConfig{Seed: seed, Tier1: 4, Tier2: 24, Stubs: 180,
			MeanStubProviders: 2.4, Tier2PeerProb: 0.35, EnterpriseFrac: 0.4, ContentFrac: 0.05}
		prof = cloud.Profile{Name: "small", PoPMetros: 10, PeerFrac: 0.7, TransitProviders: 2, Seed: seed + 1}
	case ScalePEERING:
		gen = topology.GenConfig{Seed: seed, Tier1: 8, Tier2: 70, Stubs: 900,
			MeanStubProviders: 2.4, Tier2PeerProb: 0.35, EnterpriseFrac: 0.35, ContentFrac: 0.05}
		prof = cloud.PEERINGProfile()
		prof.Seed = seed + 1
	case ScaleAzure:
		// Azure scale targets the paper's simulated evaluation sizes:
		// >=10^4 ASes and >=10^5 UGs (§5.1.1).
		gen = topology.GenConfig{Seed: seed, Tier1: 16, Tier2: 240, Stubs: 11000,
			MeanStubProviders: 2.4, Tier2PeerProb: 0.35, EnterpriseFrac: 0.35, ContentFrac: 0.05}
		prof = cloud.AzureProfile()
		prof.Seed = seed + 1
		ugCfg.TargetUGs = 120_000
	default:
		return topology.GenConfig{}, cloud.Profile{}, usergroup.Config{},
			fmt.Errorf("experiments: unknown scale %d", scale)
	}
	return gen, prof, ugCfg, nil
}

// World is one generated world: the topology, the cloud deployment on
// it, the simulated Internet over both, and every user group.
type World struct {
	Graph  *topology.Graph
	Deploy *cloud.Deployment
	Net    *netsim.World
	UGs    *usergroup.Set
}

// BuildWorld generates the world of a scale preset and seed. NewEnv
// and every tenant build their worlds here (bench/ keeps a traced copy
// of this chain), so the seeds (topology seed, deployment seed+1,
// routing seed+2, user groups seed+3) never drift between them.
func BuildWorld(scale Scale, seed int64) (*World, error) {
	gen, prof, ugCfg, err := ScaleConfig(scale, seed)
	if err != nil {
		return nil, err
	}
	wd := &World{}
	if wd.Graph, err = topology.Generate(gen); err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	if wd.Deploy, err = cloud.Build(wd.Graph, 64500, prof); err != nil {
		return nil, fmt.Errorf("deployment: %w", err)
	}
	if wd.Net, err = netsim.New(wd.Graph, wd.Deploy, seed+2); err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	if wd.UGs, err = usergroup.Build(wd.Graph, ugCfg); err != nil {
		return nil, fmt.Errorf("usergroups: %w", err)
	}
	return wd, nil
}

// NewEnv constructs an environment at the given scale with a seed.
func NewEnv(scale Scale, seed int64) (*Env, error) {
	wd, err := BuildWorld(scale, seed)
	if err != nil {
		return nil, err
	}
	in, covered, err := core.SimInputs(wd.Net, wd.UGs, nil)
	if err != nil {
		return nil, err
	}
	meas, err := measurement.NewSystem(wd.Net, covered, seed+4)
	if err != nil {
		return nil, err
	}
	return &Env{
		Scale: scale, Graph: wd.Graph, Deploy: wd.Deploy, World: wd.Net,
		UGs: covered, AllUGs: wd.UGs, Meas: meas, Inputs: in, Seed: seed,
	}, nil
}

// EstimatedInputs returns orchestrator inputs whose latency estimates
// come from the Appendix-B/C measurement system instead of direct
// prototype pings — the "Azure measurements" mode of §5.1.1.
func (e *Env) EstimatedInputs() (core.Inputs, error) {
	in, _, err := core.SimInputs(e.World, e.AllUGs, e.Meas.Estimator())
	return in, err
}

// Budgets returns the sweep of prefix budgets used across figures,
// expressed as fractions of the ingress (peering) count, clamped to at
// least 1 prefix and deduplicated.
func (e *Env) Budgets(fracs []float64) []int {
	n := len(e.Deploy.AllPeeringIDs())
	var out []int
	seen := map[int]bool{}
	for _, f := range fracs {
		b := int(f * float64(n))
		if b < 1 {
			b = 1
		}
		if b > n {
			b = n
		}
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	sort.Ints(out)
	return out
}
