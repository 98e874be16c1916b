package benchwork

import (
	"time"

	"clustercolor/internal/acd"
	"clustercolor/internal/cluster"
	"clustercolor/internal/core"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/parwork"
)

// ACDWorkload is one decomposition benchmark case: an instance builder plus
// the ε the decomposition runs with. The same workloads back BenchmarkACD in
// bench_test.go and the benchtables -acdbench emitter, so BENCH_acd.json
// stays comparable to `go test -bench ACD` output.
type ACDWorkload struct {
	// Name is the benchmark-style identifier (slashes group sub-cases).
	Name string
	// N is the vertex count.
	N int
	// Eps is the decomposition parameter (Definition 4.2).
	Eps float64
	// Build constructs the instance (once per workload; decomposition runs
	// are what the benchmark times).
	Build func() (*graph.Graph, error)
}

// ACDWorkloads returns the decomposition benchmark matrix. GNP deg≈64 at
// two sizes a decade apart exhibits the O(n + m·t/P) scaling directly on
// the all-sparse path (no almost-cliques, so the waves dominate); the
// planted and ring instances make every stage work — buddy evaluation on
// dense blocks, component assembly, external-degree profiling, and cabal
// classification.
func ACDWorkloads() []ACDWorkload {
	gnp := func(n int) ACDWorkload {
		return ACDWorkload{
			Name: graphGenName("ACD/GNP", n, "deg=64"),
			N:    n,
			Eps:  0.25,
			Build: func() (*graph.Graph, error) {
				return graph.GNP(n, 64/float64(n), graph.NewRand(uint64(n)+3))
			},
		}
	}
	return []ACDWorkload{
		gnp(100_000),
		gnp(1_000_000),
		{
			Name: "ACD/PlantedACD/n=5000",
			N:    5000,
			Eps:  0.25,
			Build: func() (*graph.Graph, error) {
				h, _, err := graph.PlantedACD(graph.PlantedACDSpec{
					NumCliques:     20,
					CliqueSize:     150,
					DropFraction:   0.05,
					ExternalDegree: 8,
					SparseN:        2000,
					SparseP:        0.01,
				}, graph.NewRand(3))
				return h, err
			},
		},
		{
			Name: "ACD/RingOfCliques/n=12e3/size=60",
			N:    12_000,
			Eps:  0.25,
			Build: func() (*graph.Graph, error) {
				return graph.RingOfCliques(200, 60)
			},
		},
	}
}

// NewACDInstance builds the decomposition benchmark fixture for h: singleton
// clusters (H = G) with the default Θ(log n) bandwidth. Instance
// construction is separated from RunACDOnce so benchmarks time the
// decomposition alone, and so allocation assertions see the steady state.
func NewACDInstance(h *graph.Graph, seed uint64) (*cluster.CG, error) {
	exp, err := graph.Expand(h, graph.ExpandSpec{Topology: graph.TopologySingleton}, graph.NewRand(seed^0xa5a5a5a5))
	if err != nil {
		return nil, err
	}
	cost, err := network.NewCostModel(network.DefaultBandwidth(exp.G.N()))
	if err != nil {
		return nil, err
	}
	return cluster.New(h, exp, cost)
}

// RunACDOnce executes one decomposition + profile build against the
// instance, reusing ws across calls (steady-state allocations are then
// independent of n). The cabal threshold is the pipeline's default ℓ for
// the instance size.
func RunACDOnce(cg *cluster.CG, eps float64, seed uint64, ws *acd.Workspace) (*acd.Decomposition, *acd.Profile, error) {
	d, prof, _, _, err := RunACDOnceTimed(cg, eps, seed, ws)
	return d, prof, err
}

// RunACDOnceTimed is RunACDOnce reporting the wall-clock split between the
// decomposition waves (ComputeWith) and the profile build — the per-stage
// surface the speedup-curve emitters plot. Timing feeds no decision; the
// outputs are those of RunACDOnce, byte for byte.
func RunACDOnceTimed(cg *cluster.CG, eps float64, seed uint64, ws *acd.Workspace) (*acd.Decomposition, *acd.Profile, time.Duration, time.Duration, error) {
	rng := parwork.StreamRNG(seed)
	start := time.Now()
	d, err := acd.ComputeWith(cg, eps, rng, ws)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	computeNs := time.Since(start)
	n := cg.H.N()
	ell := core.DefaultParams(n).Ell(n)
	start = time.Now()
	prof, err := acd.BuildProfileWith(cg, d, float64(cg.H.MaxDegree()), ell, rng, ws)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return d, prof, computeNs, time.Since(start), nil
}
