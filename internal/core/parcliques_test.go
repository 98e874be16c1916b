package core

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"clustercolor/internal/coloring"
	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
)

// plantedHighDegree returns an instance that takes the high-degree pipeline
// and exercises every per-clique stage (matchings, SCTs, palette builds,
// put-aside donation).
func plantedHighDegree(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	h, _, err := graph.PlantedACD(graph.PlantedACDSpec{
		NumCliques:     4,
		CliqueSize:     60,
		DropFraction:   0.05,
		ExternalDegree: 3,
		SparseN:        80,
		SparseP:        0.1,
	}, graph.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestColorByteIdenticalAcrossParallelism pins the contract of the parallel
// per-clique stage loops: for a fixed seed, the output coloring and the
// charged rounds are byte-identical at parallelism 1, 4, NumCPU, and 32. The
// 32 level exercises the adaptive grain (past 16 workers the chunk count
// scales at 8 per worker, so the range loops run on a different partition)
// and the candidate-list conflict apply in runPerClique (gated on
// parallelism > 1); both must leave the output bytes untouched. Two
// instances: a planted high-degree one driving every per-clique stage, and a
// larger GNP on the low-degree pipeline's chunked sweeps.
func TestColorByteIdenticalAcrossParallelism(t *testing.T) {
	instances := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"planted-high", func() *graph.Graph { return plantedHighDegree(t, 5) }},
		{"gnp-low", func() *graph.Graph {
			h, err := graph.GNP(20_000, 8.0/20_000, graph.NewRand(17))
			if err != nil {
				t.Fatal(err)
			}
			return h
		}},
	}
	for _, inst := range instances {
		t.Run(inst.name, func(t *testing.T) {
			h := inst.build()
			params := DefaultParams(h.N())
			params.Seed = 11

			type outcome struct {
				colors []int32
				rounds int64
			}
			runAt := func(par int) outcome {
				prev := parwork.SetParallelism(par)
				defer parwork.SetParallelism(prev)
				cg := buildCG(t, h, graph.TopologySingleton, 1, params.Seed+7)
				col, stats, err := Color(cg, params)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if err := coloring.VerifyComplete(h, col); err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				colors := make([]int32, h.N())
				for v := 0; v < h.N(); v++ {
					colors[v] = col.Get(v)
				}
				return outcome{colors: colors, rounds: stats.Rounds}
			}

			ref := runAt(1)
			for _, par := range []int{4, runtime.GOMAXPROCS(0), 32} {
				got := runAt(par)
				if got.rounds != ref.rounds {
					t.Errorf("parallelism %d charged %d rounds, sequential charged %d", par, got.rounds, ref.rounds)
				}
				for v := range ref.colors {
					if got.colors[v] != ref.colors[v] {
						t.Fatalf("parallelism %d: vertex %d colored %d, sequential colored %d",
							par, v, got.colors[v], ref.colors[v])
					}
				}
			}
		})
	}
}

// TestRunPerCliqueDropsCrossCliqueConflicts feeds runPerClique two adjacent
// single-vertex "cliques" whose jobs pick the same color against the same
// snapshot; the sequential apply must keep the first write and drop the
// second, leaving the coloring proper and the dropped vertex uncolored for
// a later stage.
func TestRunPerCliqueDropsCrossCliqueConflicts(t *testing.T) {
	h := graph.Path(2) // vertices 0–1 adjacent
	cg := buildCG(t, h, graph.TopologySingleton, 1, 3)
	col := coloring.New(2, h.MaxDegree())
	members := [][]int{{0}, {1}}
	_, _, dropped, err := runPerClique(cg, col, "test", 2, 9, true,
		func(i int) []int { return members[i] },
		func(i int, v *coloring.CliqueView, rng *rand.Rand) (int, error) {
			// Both cliques pick color 1 against the shared snapshot.
			v.Colors[0] = 1
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped %d writes, want 1", dropped)
	}
	if got := col.Get(0); got != 1 {
		t.Fatalf("vertex 0 colored %d, want 1 (first clique's write kept)", got)
	}
	if got := col.Get(1); got != coloring.None {
		t.Fatalf("vertex 1 colored %d, want uncolored (conflicting write dropped)", got)
	}
	if err := coloring.VerifyProper(h, col); err != nil {
		t.Fatal(err)
	}
}
