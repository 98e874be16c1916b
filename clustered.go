package clustercolor

import (
	"fmt"

	"clustercolor/internal/baseline"
	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/core"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/virtual"
)

// ColorClustered colors the cluster graph defined by a machine-to-cluster
// assignment over an explicit communication network g (Definition 3.1): the
// vertices of the colored graph H are the clusters, and two clusters are
// adjacent iff some link of g connects them. This is the workflow of
// algorithms that contract edges or grow clusters (network decomposition,
// maximum-flow j-trees — Section 1.1) and then need to color the contracted
// graph.
//
// clusterOf must assign every machine a cluster id in [0, k) for some k,
// and every cluster must induce a connected subgraph of g.
func ColorClustered(g *Graph, clusterOf []int, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	h, exp, err := contract(g, clusterOf)
	if err != nil {
		return nil, err
	}
	bw := opts.BandwidthBits
	if bw == 0 {
		bw = DefaultBandwidth(g.N())
	}
	cost, err := network.NewCostModel(bw)
	if err != nil {
		return nil, err
	}
	cg, err := cluster.New(h, exp, cost)
	if err != nil {
		return nil, err
	}
	params := resolveParams(opts, h.N())
	col, stats, err := core.Color(cg, params)
	if err != nil {
		return nil, err
	}
	colors := make([]int32, h.N())
	for v := 0; v < h.N(); v++ {
		colors[v] = col.Get(v)
	}
	return &Result{colors: colors, stats: stats, cost: cost}, nil
}

// ContractedGraph returns the cluster graph H induced by clusterOf over g,
// without coloring it. Useful to inspect Δ or verify colorings of clustered
// instances.
func ContractedGraph(g *Graph, clusterOf []int) (*Graph, error) {
	h, _, err := contract(g, clusterOf)
	return h, err
}

func contract(g *Graph, clusterOf []int) (*Graph, *graph.Expansion, error) {
	if len(clusterOf) != g.N() {
		return nil, nil, fmt.Errorf("clustercolor: %d assignments for %d machines", len(clusterOf), g.N())
	}
	k := 0
	for m, c := range clusterOf {
		if c < 0 {
			return nil, nil, fmt.Errorf("clustercolor: machine %d has negative cluster %d", m, c)
		}
		// Dense, non-empty ids number at most one per machine, so an id
		// past the machine count is rejected before it sizes any table.
		if c >= len(clusterOf) {
			return nil, nil, fmt.Errorf("clustercolor: machine %d has cluster %d, but ids must be dense in [0, %d)", m, c, len(clusterOf))
		}
		if c+1 > k {
			k = c + 1
		}
	}
	machines := make([][]int32, k)
	for m, c := range clusterOf {
		machines[c] = append(machines[c], int32(m))
	}
	for c, ms := range machines {
		if len(ms) == 0 {
			return nil, nil, fmt.Errorf("clustercolor: cluster %d has no machines (ids must be dense)", c)
		}
	}
	b := graph.NewBuilder(k)
	for m := 0; m < g.N(); m++ {
		cu := clusterOf[m]
		for _, m2 := range g.Neighbors(m) {
			cv := clusterOf[m2]
			if cu != cv {
				// Each link is seen from both endpoints; Build merges the
				// repeats into one H-edge.
				if err := b.AddEdge(cu, cv); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	h := b.Build()
	exp := &graph.Expansion{G: g, ClusterOf: append([]int(nil), clusterOf...), Machines: machines}
	return h, exp, nil
}

// ColorDistance2 computes a distance-2 coloring of g (Corollary 1.3) via
// the virtual-graph route of Appendix A: H = G² with closed-neighborhood
// supports (congestion 2, dilation ≤ 2), every round charged with the
// congestion overhead factor. The returned colors, indexed by g's vertices,
// are distinct within every distance-2 pair and use at most Δ²+1 colors.
func ColorDistance2(g *Graph, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	vg, err := virtual.Distance2(g)
	if err != nil {
		return nil, err
	}
	bw := opts.BandwidthBits
	if bw == 0 {
		bw = DefaultBandwidth(g.N())
	}
	cg, cost, err := vg.ClusterView(bw)
	if err != nil {
		return nil, err
	}
	params := resolveParams(opts, vg.H.N())
	col, stats, err := core.Color(cg, params)
	if err != nil {
		return nil, err
	}
	colors := make([]int32, vg.H.N())
	for v := 0; v < vg.H.N(); v++ {
		colors[v] = col.Get(v)
	}
	return &Result{colors: colors, stats: stats, cost: cost}, nil
}

// BaselineKind selects a comparison algorithm for ColorBaseline.
type BaselineKind int

const (
	// LubyBaseline is the Johansson/Luby O(log n)-round random-trials
	// algorithm, paying the honest Θ(Δ/log n) palette-learning cost per
	// wave on cluster graphs.
	LubyBaseline BaselineKind = iota + 1
	// PaletteSparsificationBaseline is the FGH+24-style list algorithm
	// (the previous best for cluster graphs, O(log² n) rounds).
	PaletteSparsificationBaseline
)

// ColorBaseline runs a comparison algorithm under the same model and cost
// accounting as Color.
func ColorBaseline(h *Graph, kind BaselineKind, opts Options) (*Result, error) {
	cg, cost, err := buildClusterGraph(h, opts)
	if err != nil {
		return nil, err
	}
	col := coloring.New(h.N(), h.MaxDegree())
	rng := graph.NewRand(opts.Seed + 11)
	maxWaves := 4*h.N() + 100
	switch kind {
	case LubyBaseline:
		if _, err := baseline.RandomTrials(cg, col, maxWaves, rng); err != nil {
			return nil, err
		}
	case PaletteSparsificationBaseline:
		if _, err := baseline.PaletteSparsification(cg, col, 2.0, maxWaves, rng); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("clustercolor: unknown baseline %d", kind)
	}
	if err := coloring.VerifyComplete(h, col); err != nil {
		return nil, err
	}
	colors := make([]int32, h.N())
	for v := 0; v < h.N(); v++ {
		colors[v] = col.Get(v)
	}
	stats := &core.Stats{
		Path:           "baseline",
		Rounds:         cost.Rounds(),
		PhaseRounds:    cost.PhaseRounds(),
		MaxPayloadBits: cost.MaxPayload(),
		Delta:          h.MaxDegree(),
		Dilation:       cg.Dilation,
	}
	return &Result{colors: colors, stats: stats, cost: cost}, nil
}
