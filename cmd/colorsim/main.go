// Command colorsim runs the cluster-graph (Δ+1)-coloring algorithm on a
// generated instance and prints the verified result with its round/bandwidth
// accounting.
//
// Usage:
//
//	colorsim -kind gnp -n 500 -p 0.05 -topology star -machines 4 -seed 7
//	colorsim -kind cabal -cliques 3 -cliquesize 60 -external 2
//	colorsim -kind geometric -n 2000 -radius 0.04
//	colorsim -kind ba -n 1000 -attach 4
//	colorsim -kind regular -n 1000 -degree 8
//	colorsim -kind ringcliques -cliques 8 -cliquesize 30
package main

import (
	"flag"
	"fmt"
	"os"

	"clustercolor"
	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/core"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "colorsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		kind       = flag.String("kind", "gnp", "instance kind: gnp | planted | cabal | clique | power2 | geometric | ba | regular | ringcliques | tree")
		n          = flag.Int("n", 400, "vertices (gnp, clique, power2, geometric, ba, regular, tree)")
		p          = flag.Float64("p", 0.05, "edge probability (gnp, power2)")
		radius     = flag.Float64("radius", 0.1, "connection radius (geometric)")
		attach     = flag.Int("attach", 4, "edges per new vertex (ba)")
		degree     = flag.Int("degree", 6, "vertex degree (regular)")
		cliques    = flag.Int("cliques", 3, "planted/cabal/ringcliques block count")
		cliqueSize = flag.Int("cliquesize", 50, "planted/cabal/ringcliques block size")
		external   = flag.Int("external", 3, "planted/cabal external degree")
		topology   = flag.String("topology", "singleton", "cluster wiring: singleton | star | path | tree")
		machines   = flag.Int("machines", 1, "machines per cluster")
		bandwidth  = flag.Int("bandwidth", 0, "per-link bits per round (0 = Θ(log n) default)")
		seed       = flag.Uint64("seed", 1, "random seed")
		verbose    = flag.Bool("v", false, "print the per-phase round breakdown")
	)
	flag.Parse()

	h, err := makeInstance(instanceSpec{
		kind: *kind, n: *n, p: *p, radius: *radius, attach: *attach,
		degree: *degree, cliques: *cliques, cliqueSize: *cliqueSize,
		external: *external, seed: *seed,
	})
	if err != nil {
		return err
	}
	topo, err := parseTopology(*topology)
	if err != nil {
		return err
	}
	size := *machines
	if topo == graph.TopologySingleton {
		size = 1
	}
	exp, err := graph.Expand(h, graph.ExpandSpec{Topology: topo, MachinesPerCluster: size}, graph.NewRand(*seed+1))
	if err != nil {
		return err
	}
	bw := *bandwidth
	if bw == 0 {
		bw = defaultBandwidth(exp.G.N())
	}
	cost, err := network.NewCostModel(bw)
	if err != nil {
		return err
	}
	cg, err := cluster.New(h, exp, cost)
	if err != nil {
		return err
	}
	params := core.DefaultParams(h.N())
	params.Seed = *seed
	col, stats, err := core.Color(cg, params)
	if err != nil {
		return err
	}
	if err := coloring.VerifyComplete(h, col); err != nil {
		return fmt.Errorf("verification failed: %w", err)
	}
	fmt.Printf("instance: kind=%s n=%d m=%d Δ=%d\n", *kind, h.N(), h.M(), h.MaxDegree())
	fmt.Printf("network:  machines=%d links=%d dilation=%d bandwidth=%d bits\n",
		exp.G.N(), exp.G.M(), stats.Dilation, bw)
	fmt.Printf("result:   colors=%d (≤ Δ+1=%d)  VERIFIED PROPER\n", col.CountColors(), h.MaxDegree()+1)
	fmt.Printf("path:     %s  cliques=%d cabals=%d sparse=%d\n",
		stats.Path, stats.NumCliques, stats.NumCabals, stats.NumSparse)
	fmt.Printf("rounds:   total=%d fallback=%d maxPayload=%d bits\n",
		stats.Rounds, stats.FallbackRounds, stats.MaxPayloadBits)
	fmt.Printf("stages:   sparse=%d nonCabal=%d cabal=%d matching=%d putAside(free=%d don=%d fb=%d)\n",
		stats.SparseColored, stats.NonCabalColored, stats.CabalColored, stats.MatchingRepeats,
		stats.PutAsideFree, stats.PutAsideDonated, stats.PutAsideFallback)
	if *verbose {
		fmt.Println(cost.Summary())
	}
	return nil
}

// instanceSpec carries every generator knob the CLI exposes.
type instanceSpec struct {
	kind       string
	n          int
	p          float64
	radius     float64
	attach     int
	degree     int
	cliques    int
	cliqueSize int
	external   int
	seed       uint64
}

func makeInstance(spec instanceSpec) (*graph.Graph, error) {
	rng := graph.NewRand(spec.seed)
	switch spec.kind {
	case "gnp":
		return graph.GNP(spec.n, spec.p, rng)
	case "clique":
		return clustercolor.Clique(spec.n)
	case "planted":
		h, _, err := graph.PlantedACD(graph.PlantedACDSpec{
			NumCliques:     spec.cliques,
			CliqueSize:     spec.cliqueSize,
			DropFraction:   0.04,
			ExternalDegree: spec.external,
			SparseN:        spec.cliqueSize,
			SparseP:        0.1,
		}, rng)
		return h, err
	case "cabal":
		h, _, err := graph.PlantedCabals(graph.CabalSpec{
			NumCliques: spec.cliques,
			CliqueSize: spec.cliqueSize,
			External:   spec.external,
		}, rng)
		return h, err
	case "power2":
		h, err := graph.GNP(spec.n, spec.p, rng)
		if err != nil {
			return nil, err
		}
		return h.Power(2)
	case "geometric":
		h, _, err := graph.RandomGeometric(spec.n, spec.radius, rng)
		return h, err
	case "ba":
		return graph.BarabasiAlbert(spec.n, spec.attach, rng)
	case "regular":
		return graph.RandomRegular(spec.n, spec.degree, rng)
	case "ringcliques":
		return graph.RingOfCliques(spec.cliques, spec.cliqueSize)
	case "tree":
		return graph.RandomTree(spec.n, rng), nil
	default:
		return nil, fmt.Errorf("unknown kind %q", spec.kind)
	}
}

func parseTopology(s string) (graph.ClusterTopology, error) {
	switch s {
	case "singleton":
		return graph.TopologySingleton, nil
	case "star":
		return graph.TopologyStar, nil
	case "path":
		return graph.TopologyPath, nil
	case "tree":
		return graph.TopologyTree, nil
	default:
		return 0, fmt.Errorf("unknown topology %q", s)
	}
}

func defaultBandwidth(machines int) int {
	bits := 1
	for 1<<bits < machines+1 {
		bits++
	}
	return 2*bits + 16
}
