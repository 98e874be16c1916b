// Package benchwork holds the repo's benchmark workloads: the instance
// generators (BenchmarkGraphGen), the experiment-runner cross-section
// (BenchmarkExperimentRunner), Color's stage-level workloads and palette
// primitives (BenchmarkColor, BenchmarkPaletteOps, -speedupbench), the
// decomposition matrix (BenchmarkACD, -acdbench, -shardbench,
// -speedupbench) and the sketch waves (-sketchbench, -speedupbench). A
// go-test benchmark and a cmd/benchtables emitter that share a workload
// time the same instances.
package benchwork

import (
	"fmt"
	"math"

	"clustercolor/internal/experiments"
	"clustercolor/internal/graph"
)

// GraphGenWorkload is one graph-generation benchmark case: a named
// generator invocation at a fixed size.
type GraphGenWorkload struct {
	// Name is the benchmark-style identifier (slashes group sub-cases).
	Name string
	// N is the vertex count, recorded alongside timings so the report can
	// demonstrate O(n+m) scaling across rows.
	N int
	// Gen builds the instance for the given seed.
	Gen func(seed uint64) (*graph.Graph, error)
}

// GraphGenWorkloads returns the generator benchmark matrix. GNP and
// geometric appear at two sizes a decade apart so the recorded timings
// exhibit the O(n+m) scaling directly (≈10× time for 10× n at constant
// expected degree); the million-vertex rows are the instances the ROADMAP's
// bandwidth-constrained network scenarios need.
func GraphGenWorkloads() []GraphGenWorkload {
	gnp := func(n int) GraphGenWorkload {
		return GraphGenWorkload{
			Name: graphGenName("GNP", n, "deg=10"),
			N:    n,
			Gen: func(seed uint64) (*graph.Graph, error) {
				return graph.GNP(n, 10/float64(n), graph.NewRand(seed))
			},
		}
	}
	geo := func(n int) GraphGenWorkload {
		radius := math.Sqrt(10 / (math.Pi * float64(n))) // E[deg] ≈ n·π·r² = 10
		return GraphGenWorkload{
			Name: graphGenName("Geometric", n, "deg=10"),
			N:    n,
			Gen: func(seed uint64) (*graph.Graph, error) {
				g, _, err := graph.RandomGeometric(n, radius, graph.NewRand(seed))
				return g, err
			},
		}
	}
	return []GraphGenWorkload{
		gnp(100_000),
		gnp(1_000_000),
		geo(100_000),
		geo(1_000_000),
		{
			Name: graphGenName("BarabasiAlbert", 1_000_000, "attach=5"),
			N:    1_000_000,
			Gen: func(seed uint64) (*graph.Graph, error) {
				return graph.BarabasiAlbert(1_000_000, 5, graph.NewRand(seed))
			},
		},
		{
			Name: graphGenName("RandomRegular", 100_000, "d=10"),
			N:    100_000,
			Gen: func(seed uint64) (*graph.Graph, error) {
				return graph.RandomRegular(100_000, 10, graph.NewRand(seed))
			},
		},
		{
			Name: graphGenName("RingOfCliques", 1_000_000, "size=50"),
			N:    1_000_000,
			Gen: func(seed uint64) (*graph.Graph, error) {
				return graph.RingOfCliques(20_000, 50)
			},
		},
		{
			Name: graphGenName("Power2", 20_000, "deg=8"),
			N:    20_000,
			Gen: func(seed uint64) (*graph.Graph, error) {
				g, err := graph.GNP(20_000, 8/20_000.0, graph.NewRand(seed))
				if err != nil {
					return nil, err
				}
				return g.Power(2)
			},
		},
	}
}

func graphGenName(kind string, n int, extra string) string {
	switch {
	case n%1_000_000 == 0:
		return fmt.Sprintf("%s/n=%de6/%s", kind, n/1_000_000, extra)
	case n%1_000 == 0:
		return fmt.Sprintf("%s/n=%de3/%s", kind, n/1_000, extra)
	default:
		return fmt.Sprintf("%s/n=%d/%s", kind, n, extra)
	}
}

// BatteryCrossSection returns the cheap cross-section of the experiment
// battery used to benchmark the parallel runner.
func BatteryCrossSection(seed uint64) []func() (*experiments.Table, error) {
	return []func() (*experiments.Table, error){
		func() (*experiments.Table, error) { return experiments.E2LowDegreeRounds([]int{150, 250, 350}, seed) },
		func() (*experiments.Table, error) {
			return experiments.E3FingerprintAccuracy([]int{64, 256}, 300, 20, seed)
		},
		func() (*experiments.Table, error) { return experiments.E6SlackGeneration([]int{50, 100, 200}, seed) },
		func() (*experiments.Table, error) { return experiments.E9SCT(40, []int{1, 3, 6}, seed) },
	}
}
