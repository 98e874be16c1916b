package main

import (
	"fmt"
	"sort"

	"clustercolor"
	"clustercolor/internal/core"
)

// workload is one benchmark input: a seeded instance generator and the
// Options a user would pass to clustercolor.Color for it. The generator and
// the options see only the benchmark seed; the library sees only the graph
// and the options.
type workload struct {
	name     string
	generate func(seed uint64) (*clustercolor.Graph, error)
	options  func(seed uint64) clustercolor.Options
}

// workloads returns the benchmark's workloads by name. tiny selects the
// self-test sizes, which take the same pipeline path as the full ones in a
// fraction of a second.
func workloads(tiny bool) map[string]workload {
	planted := clustercolor.PlantedACDSpec{NumCliques: 20, CliqueSize: 150, DropFraction: 0.05, ExternalDegree: 8, SparseN: 2000, SparseP: 0.01}
	gnpN, gnpDeg := 400_000, 64.0
	ringCliques, ringSize := 200, 60
	if tiny {
		planted = clustercolor.PlantedACDSpec{NumCliques: 6, CliqueSize: 60, DropFraction: 0.05, ExternalDegree: 4, SparseN: 300, SparseP: 0.05}
		gnpN, gnpDeg = 3000, 16
		ringCliques, ringSize = 12, 40
	}
	ws := []workload{
		{
			// High-degree path on singleton clusters: the decomposition (the
			// sketch waves and the per-edge buddy predicate) is nearly all of
			// the call.
			name: "planted-high",
			generate: func(seed uint64) (*clustercolor.Graph, error) {
				h, _, err := clustercolor.PlantedACD(planted, seed)
				return h, err
			},
			options: func(seed uint64) clustercolor.Options {
				return clustercolor.Options{Seed: seed}
			},
		},
		{
			// Low-degree path pinned by DeltaLow (as in the coloring
			// benchmark matrix): no sketch or decomposition work, so the
			// graph substrate and memory dominate.
			name: "gnp-low",
			generate: func(seed uint64) (*clustercolor.Graph, error) {
				return clustercolor.GNP(gnpN, gnpDeg/float64(gnpN), seed)
			},
			options: func(seed uint64) clustercolor.Options {
				p := core.DefaultParams(gnpN)
				p.DeltaLow = 256
				return clustercolor.Options{Seed: seed, Params: p}
			},
		},
		{
			// Every clique is a cabal; star clusters of four machines give the
			// paper's dilation, and two shards route the decomposition through
			// the partitioned substrate.
			name: "ring-sharded",
			generate: func(uint64) (*clustercolor.Graph, error) {
				return clustercolor.RingOfCliques(ringCliques, ringSize)
			},
			options: func(seed uint64) clustercolor.Options {
				return clustercolor.Options{Topology: clustercolor.StarCluster, MachinesPerCluster: 4, Shards: 2, Seed: seed}
			},
		},
	}
	out := make(map[string]workload, len(ws))
	for _, w := range ws {
		out[w.name] = w
	}
	return out
}

// lookupWorkload returns the named workload or an error listing the names.
func lookupWorkload(name string, tiny bool) (workload, error) {
	all := workloads(tiny)
	if w, ok := all[name]; ok {
		return w, nil
	}
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
