package main

import (
	"fmt"

	"painter/internal/cloud"
	"painter/internal/core"
	"painter/internal/experiments"
	"painter/internal/netsim"
	"painter/internal/obs/span"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

// worldSeed fixes the problem instance of the three simulated-world
// workloads. Solve time is chaotic in the instance (peering-scale
// seeds 1-7 and 11 solve in 5.8-7.9 s at the commit that added this
// file, and re-drawing only the user groups or only the hidden
// preferences moves it just as far), so an instance drawn from the run
// seed could not carry a 10 % bound. The instance is therefore sizing,
// like the scale; the run seed draws what is layered on top of it.
const worldSeed = 7

// world is one simulated Internet plus cloud deployment, built the way
// experiments.NewEnv and tenant.buildInstance build theirs, so a world
// here is bit-for-bit the tenant's of the same scale and seed.
type world struct {
	g   *topology.Graph
	d   *cloud.Deployment
	w   *netsim.World
	all *usergroup.Set
	// ugs and in are set by withInputs: the anycast-covered user groups
	// and the orchestrator inputs over them.
	ugs *usergroup.Set
	in  core.Inputs
}

// buildWorld constructs a world, one bench span per module call.
func buildWorld(t *tracing, parent *span.Span, scale experiments.Scale, seed int64) (*world, error) {
	gen, prof, ugCfg, err := experiments.ScaleConfig(scale, seed)
	if err != nil {
		return nil, err
	}
	wd := &world{}
	sp := t.start(parent, "topology.generate")
	wd.g, err = topology.Generate(gen)
	sp.Finish()
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	sp = t.start(parent, "cloud.build")
	wd.d, err = cloud.Build(wd.g, 64500, prof)
	sp.Finish()
	if err != nil {
		return nil, fmt.Errorf("cloud: %w", err)
	}
	sp = t.start(parent, "netsim.new")
	wd.w, err = netsim.New(wd.g, wd.d, seed+2)
	sp.Finish()
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	sp = t.start(parent, "usergroup.build")
	wd.all, err = usergroup.Build(wd.g, ugCfg)
	sp.Finish()
	if err != nil {
		return nil, fmt.Errorf("usergroup: %w", err)
	}
	return wd, nil
}

// withInputs derives the orchestrator inputs (core.SimInputs).
func (wd *world) withInputs(t *tracing, parent *span.Span) error {
	sp := t.start(parent, "core.siminputs")
	defer sp.Finish()
	in, covered, err := core.SimInputs(wd.w, wd.all, nil)
	if err != nil {
		return fmt.Errorf("siminputs: %w", err)
	}
	wd.in, wd.ugs = in, covered
	return nil
}

// setupLayerMetrics fills the world set-up rows of the per-layer table.
func setupLayerMetrics(layer map[string]float64, st spanTimes) {
	layer["topology.generate_ms"] = st.medianMs("topology.generate")
	layer["cloud.build_ms"] = st.medianMs("cloud.build")
	layer["netsim.new_ms"] = st.medianMs("netsim.new")
	layer["usergroup.build_ms"] = st.medianMs("usergroup.build")
	layer["core.siminputs_ms"] = st.medianMs("core.siminputs")
}
