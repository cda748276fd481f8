// Command topogen generates a synthetic Internet topology and prints a
// summary plus optional dumps, for inspecting the substrate the
// experiments run on.
//
//	topogen -tier1 12 -tier2 120 -stubs 2000 -seed 1
//	topogen -scale azure -dump-deployment    # exact experiments.NewEnv preset
//	topogen -stubs 500 -dump-cones -dump-deployment
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"painter/internal/cloud"
	"painter/internal/experiments"
	"painter/internal/topology"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "generator seed")
		scale      = flag.String("scale", "", "preset: small, peering, azure (the exact experiments.NewEnv configs; overrides -tier1/-tier2/-stubs/-multihome)")
		tier1      = flag.Int("tier1", 12, "tier-1 backbone count")
		tier2      = flag.Int("tier2", 120, "tier-2 transit count")
		stubs      = flag.Int("stubs", 2000, "stub AS count")
		multihome  = flag.Float64("multihome", 2.4, "mean stub providers")
		dumpCones  = flag.Bool("dump-cones", false, "print the 10 largest customer cones")
		dumpDeploy = flag.Bool("dump-deployment", false, "build + summarize the deployment (azure profile unless -scale picks another)")
	)
	flag.Parse()

	cfg := topology.GenConfig{
		Seed: *seed, Tier1: *tier1, Tier2: *tier2, Stubs: *stubs,
		MeanStubProviders: *multihome, Tier2PeerProb: 0.35,
		EnterpriseFrac: 0.35, ContentFrac: 0.05,
	}
	prof := cloud.AzureProfile()
	if *scale != "" {
		sc, err := experiments.ParseScale(*scale)
		if err != nil {
			log.Fatal(err)
		}
		cfg, prof, _, err = experiments.ScaleConfig(sc, *seed)
		if err != nil {
			log.Fatal(err)
		}
	}
	g, err := topology.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	st := g.Stats()
	fmt.Printf("topology: %d ASes (%d tier-1, %d tier-2, %d stubs)\n", st.ASes, st.Tier1, st.Tier2, st.Stubs)
	fmt.Printf("links:    %d customer, %d peer (total %d)\n", st.CustomerLinks, st.PeerLinks, st.Links)
	fmt.Printf("cones:    largest %d ASes; mean stub multihoming %d\n", st.MaxConeSize, st.MeanStubProvs)

	if *dumpCones {
		type cone struct {
			asn  topology.ASN
			size int
		}
		var cones []cone
		for _, n := range g.ASNs() {
			if g.AS(n).Kind == topology.KindTransit {
				cones = append(cones, cone{n, g.ConeSize(n)})
			}
		}
		sort.Slice(cones, func(i, j int) bool {
			if cones[i].size != cones[j].size {
				return cones[i].size > cones[j].size
			}
			return cones[i].asn < cones[j].asn
		})
		fmt.Println("\nlargest customer cones:")
		for i, c := range cones {
			if i >= 10 {
				break
			}
			fmt.Printf("  %-8v tier-%d cone=%d\n", c.asn, g.AS(c.asn).Tier, c.size)
		}
	}

	if *dumpDeploy {
		d, err := cloud.Build(g, 64500, prof)
		if err != nil {
			log.Fatal(err)
		}
		ds := d.Stats()
		fmt.Printf("\ndeployment (%s profile): %d PoPs, %d peerings (%d transit), %.1f peers/PoP\n",
			prof.Name, ds.PoPs, ds.Peerings, ds.Transit, ds.PeersPerPoPMean)
		fmt.Println("PoPs:")
		for _, p := range d.PoPs {
			fmt.Printf("  %-4s peerings=%d\n", p.Metro, len(d.PeeringsAt(p.ID)))
		}
	}
}
