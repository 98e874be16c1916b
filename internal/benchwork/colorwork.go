package benchwork

import (
	"fmt"

	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/core"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
)

// ColorWorkload is one stage-level coloring benchmark case: an instance
// builder plus the parameters that pin which pipeline runs. The same
// workloads back BenchmarkColor in bench_test.go and the per-stage curves
// of the benchtables -speedupbench emitter.
type ColorWorkload struct {
	// Name is the benchmark-style identifier (slashes group sub-cases).
	Name string
	// N is the vertex count.
	N int
	// Build constructs the instance (once per workload; Color runs are what
	// the benchmark times).
	Build func() (*graph.Graph, error)
	// Params returns the tuned parameters for an n-vertex instance. The
	// runner overwrites Seed per iteration.
	Params func(n int) core.Params
}

// ColorWorkloads returns the coloring benchmark matrix. GNP deg≈64 runs the
// low-degree pipeline (DeltaLow pinned above Δ) at two sizes so linear
// scaling shows directly; the planted and ring instances take the
// high-degree pipeline and exercise every per-clique stage — colorful
// matchings, synchronized color trials, clique-palette rebuilds and
// put-aside donation.
func ColorWorkloads() []ColorWorkload {
	lowGNP := func(n int) ColorWorkload {
		return ColorWorkload{
			Name: graphGenName("Color/GNP", n, "deg=64/low"),
			N:    n,
			Build: func() (*graph.Graph, error) {
				return graph.GNP(n, 64/float64(n), graph.NewRand(uint64(n)+3))
			},
			Params: func(n int) core.Params {
				p := core.DefaultParams(n)
				// Pin the low-degree pipeline: Δ of GNP deg≈64 sits near the
				// default 4·log₂ n threshold, and the fingerprint-based ACD
				// is not built for Δ ≪ √n instances at this scale.
				p.DeltaLow = 256
				return p
			},
		}
	}
	return []ColorWorkload{
		lowGNP(20_000),
		lowGNP(100_000),
		{
			Name: "Color/PlantedACD/n=1360/high",
			N:    1360,
			Build: func() (*graph.Graph, error) {
				h, _, err := graph.PlantedACD(graph.PlantedACDSpec{
					NumCliques:     12,
					CliqueSize:     80,
					DropFraction:   0.05,
					ExternalDegree: 4,
					SparseN:        400,
					SparseP:        0.08,
				}, graph.NewRand(3))
				return h, err
			},
			Params: core.DefaultParams,
		},
		{
			Name: "Color/RingOfCliques/n=1800/high",
			N:    1800,
			Build: func() (*graph.Graph, error) {
				return graph.RingOfCliques(30, 60)
			},
			Params: core.DefaultParams,
		},
	}
}

// RunColor executes one coloring run of a workload instance: singleton
// clusters (H = G), default Θ(log n) bandwidth, the workload's params with
// the given seed. It returns the run's stats (the coloring is verified by
// core.Color itself).
func RunColor(h *graph.Graph, params core.Params, seed uint64) (*core.Stats, error) {
	params.Seed = seed
	exp, err := graph.Expand(h, graph.ExpandSpec{Topology: graph.TopologySingleton}, graph.NewRand(seed^0xa5a5a5a5))
	if err != nil {
		return nil, err
	}
	cost, err := network.NewCostModel(network.DefaultBandwidth(exp.G.N()))
	if err != nil {
		return nil, err
	}
	cg, err := cluster.New(h, exp, cost)
	if err != nil {
		return nil, err
	}
	_, stats, err := core.Color(cg, params)
	return stats, err
}

// PaletteOpCase is one palette micro-benchmark: a name and the operation to
// time. BenchmarkPaletteOps (bench_test.go) times the table, and
// TestPaletteOpCasesAllocs pins its allocation contract.
type PaletteOpCase struct {
	Name string
	Op   func(i int)
}

// PaletteOpCases returns the palette micro-benchmark table over a fixture
// produced by PaletteOpsFixture. Scratch-backed cases must measure
// 0 allocs/op; the package-level Palette exactly 1 (its caller-owned
// result).
func PaletteOpCases(g *graph.Graph, col *coloring.Coloring) ([]PaletteOpCase, error) {
	cost, err := network.NewCostModel(48)
	if err != nil {
		return nil, err
	}
	cg, err := cluster.NewAbstract(g, g, 0, cost)
	if err != nil {
		return nil, err
	}
	scratch := coloring.NewPaletteScratch()
	members := make([]int, 256)
	for v := range members {
		members[v] = v % g.N()
	}
	var cp *coloring.CliquePalette
	return []PaletteOpCase{
		{"Palette", func(i int) { _ = coloring.Palette(g, col, i%g.N()) }},
		{"PaletteScratch", func(i int) { _ = scratch.Palette(g, col, i%g.N()) }},
		{"PaletteSize", func(i int) { _ = coloring.PaletteSize(g, col, i%g.N()) }},
		{"Available", func(i int) { _ = coloring.Available(g, col, i%g.N(), int32(i%col.Delta()+1)) }},
		{"Slack", func(i int) { _ = coloring.Slack(g, col, i%g.N(), nil) }},
		{"ReuseSlack", func(i int) { _ = coloring.ReuseSlack(g, col, i%g.N()) }},
		{"CliquePaletteRebuild", func(i int) { cp = coloring.RebuildCliquePalette(cp, cg, col, members) }},
	}, nil
}

// PaletteOpsFixture returns the shared fixture of the palette
// micro-benchmarks: a GNP deg≈64 graph at n and a deterministic proper
// partial coloring covering roughly 60% of the vertices.
func PaletteOpsFixture(n int) (*graph.Graph, *coloring.Coloring, error) {
	g, err := graph.GNP(n, 64/float64(n), graph.NewRand(7))
	if err != nil {
		return nil, nil, err
	}
	col := coloring.New(g.N(), g.MaxDegree())
	rng := graph.NewRand(11)
	for v := 0; v < g.N(); v++ {
		if rng.Float64() >= 0.6 {
			continue
		}
		c := int32(1 + rng.IntN(g.MaxDegree()+1))
		ok := true
		for _, u := range g.Neighbors(v) {
			if col.Get(int(u)) == c {
				ok = false
				break
			}
		}
		if ok {
			if err := col.Set(v, c); err != nil {
				return nil, nil, fmt.Errorf("benchwork: fixture coloring: %w", err)
			}
		}
	}
	return g, col, nil
}
